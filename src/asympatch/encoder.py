"""Desk-scale vision transformer over sparse patch-token sequences, with
projection/prediction heads and exact manual backpropagation.

Parameters live in a flat ``dict[str, np.ndarray]`` (float64); batch-norm
running statistics live in a separate dict so the optimizer never touches
them. Every forward returns the caches its backward needs; backwards return
exact analytic gradients, verified against central finite differences in the
test suite.

Token sequences are ``(B, L, D)`` with ``L = sampled patch count + 1``: a
learned class token is prepended and the class-token output of the final
normalization is the representation. Since nothing else is kept, the last
block queries with the class token only: keys and values use every token,
but its attention output, MLP and the final norm run on one row per sample.
Positional codes are indexed by the patch's position in the *full* grid, so
the same patch receives the same code no matter which other patches were
sampled alongside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN_EPS = 1e-6
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
INIT_STD = 0.02


@dataclass(frozen=True)
class BackboneConfig:
    """Vision-transformer shape parameters."""

    patch_size: int
    n_blocks: int
    n_heads: int
    token_dim: int
    image_size: int
    mlp_ratio: int = 4
    pos_mode: str = "learnable"     # "learnable" | "sincos"

    def __post_init__(self):
        if self.token_dim % self.n_heads:
            raise ValueError("token_dim must be divisible by n_heads")
        if self.image_size % self.patch_size:
            raise ValueError("patch_size must tile image_size")
        if self.pos_mode not in ("learnable", "sincos"):
            raise ValueError(f"unknown pos_mode {self.pos_mode!r}")
        if self.pos_mode == "sincos" and self.token_dim % 4:
            raise ValueError("sincos positions need token_dim divisible by 4")

    @property
    def grid_side(self) -> int:
        return self.image_size // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.grid_side ** 2

    @property
    def head_dim(self) -> int:
        return self.token_dim // self.n_heads

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * 3


@dataclass(frozen=True)
class HeadConfig:
    """Projection / prediction MLP stacks.

    Every layer but the last is Linear + BatchNorm + ReLU; the last is
    Linear + non-learnable BatchNorm. The prediction head consumes the
    projection output (width ``proj_dims[-1]``).
    """

    proj_dims: tuple[int, ...]
    pred_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.proj_dims) < 1 or len(self.pred_dims) < 1:
            raise ValueError("heads need at least one layer")
        if self.pred_dims[-1] != self.proj_dims[-1]:
            raise ValueError("prediction output width must match projection")


BACKBONES = {
    "vit-micro": BackboneConfig(patch_size=2, n_blocks=4, n_heads=2,
                                token_dim=64, image_size=16),
    "vit-tiny-2": BackboneConfig(patch_size=2, n_blocks=12, n_heads=3,
                                 token_dim=192, image_size=32),
    "vit-small-2": BackboneConfig(patch_size=2, n_blocks=12, n_heads=6,
                                  token_dim=384, image_size=32),
    "vit-base-2": BackboneConfig(patch_size=2, n_blocks=12, n_heads=12,
                                 token_dim=768, image_size=32),
    "vit-small-16": BackboneConfig(patch_size=16, n_blocks=12, n_heads=6,
                                   token_dim=384, image_size=224,
                                   pos_mode="sincos"),
    "vit-base-16": BackboneConfig(patch_size=16, n_blocks=12, n_heads=12,
                                  token_dim=768, image_size=224,
                                  pos_mode="sincos"),
}

HEADS = {
    "micro": HeadConfig(proj_dims=(64, 64, 32), pred_dims=(64, 64, 32)),
    "cifar": HeadConfig(proj_dims=(512, 512, 128), pred_dims=(512, 512, 128)),
    "imagenet": HeadConfig(proj_dims=(4096, 4096, 256), pred_dims=(4096, 256)),
}


# ---------------------------------------------------------------------------
# initialization

def trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    """Normal(0, std) truncated at two standard deviations."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2.0 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2.0 * std
    return x


def _sincos_1d(positions: np.ndarray, dim: int) -> np.ndarray:
    omega = 1.0 / (10000.0 ** (np.arange(dim // 2) / (dim // 2)))
    ang = positions[:, None] * omega[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def sincos_position_table(grid_side: int, dim: int) -> np.ndarray:
    """Fixed 2-d sine-cosine positional codes, (n_patches + 1, dim).

    Row 0 (the class token) is zero; patch rows concatenate a row code and a
    column code of ``dim/2`` each.
    """
    rows, cols = np.divmod(np.arange(grid_side * grid_side), grid_side)
    table = np.concatenate(
        [_sincos_1d(rows.astype(float), dim // 2),
         _sincos_1d(cols.astype(float), dim // 2)], axis=1
    )
    return np.concatenate([np.zeros((1, dim)), table], axis=0)


_SINCOS_CACHE: dict = {}


def _position_table(cfg: BackboneConfig, params: dict) -> np.ndarray:
    if cfg.pos_mode == "learnable":
        return params["pos"]
    key = (cfg.grid_side, cfg.token_dim)
    if key not in _SINCOS_CACHE:
        _SINCOS_CACHE[key] = sincos_position_table(*key)
    return _SINCOS_CACHE[key]


def init_params(cfg: BackboneConfig, heads: HeadConfig,
                rng: np.random.Generator) -> tuple[dict, dict]:
    """Fresh parameter and batch-norm-statistics dictionaries."""
    return _make_params(cfg, heads, lambda shape: trunc_normal(rng, shape),
                        np.zeros, np.ones)


def param_shapes(cfg: BackboneConfig, heads: HeadConfig) -> tuple[dict, dict]:
    """The shape of every parameter and of every batch-norm statistic, keyed
    and ordered as :func:`init_params` makes them, without drawing any."""
    return _make_params(cfg, heads, tuple, tuple, tuple)


def _make_params(cfg: BackboneConfig, heads: HeadConfig, normal, zeros, ones):
    """Parameters and batch-norm statistics, each made by calling ``normal``,
    ``zeros`` or ``ones`` with its shape."""
    d = cfg.token_dim
    p = {}
    p["embed.w"] = normal((cfg.patch_dim, d))
    p["embed.b"] = zeros((d,))
    p["cls"] = normal((d,))
    if cfg.pos_mode == "learnable":
        p["pos"] = normal((cfg.n_patches + 1, d))
    for i in range(cfg.n_blocks):
        pre = f"blocks.{i}"
        p[f"{pre}.ln1.g"] = ones((d,))
        p[f"{pre}.ln1.b"] = zeros((d,))
        p[f"{pre}.attn.w_qkv"] = normal((d, 3 * d))
        p[f"{pre}.attn.b_qkv"] = zeros((3 * d,))
        p[f"{pre}.attn.w_out"] = normal((d, d))
        p[f"{pre}.attn.b_out"] = zeros((d,))
        p[f"{pre}.ln2.g"] = ones((d,))
        p[f"{pre}.ln2.b"] = zeros((d,))
        h = d * cfg.mlp_ratio
        p[f"{pre}.mlp.w1"] = normal((d, h))
        p[f"{pre}.mlp.b1"] = zeros((h,))
        p[f"{pre}.mlp.w2"] = normal((h, d))
        p[f"{pre}.mlp.b2"] = zeros((d,))
    p["norm.g"] = ones((d,))
    p["norm.b"] = zeros((d,))
    bn = {}
    for name, in_dim, dims in (("proj", d, heads.proj_dims),
                               ("pred", heads.proj_dims[-1], heads.pred_dims)):
        # no bias on the linear maps: each is followed by a batch norm whose
        # shift would absorb it (and make its gradient identically zero)
        prev = in_dim
        for i, width in enumerate(dims):
            p[f"{name}.{i}.w"] = normal((prev, width))
            if i < len(dims) - 1:
                p[f"{name}.bn{i}.g"] = ones((width,))
                p[f"{name}.bn{i}.b"] = zeros((width,))
            bn[f"{name}.bn{i}.mean"] = zeros((width,))
            bn[f"{name}.bn{i}.var"] = ones((width,))
            prev = width
    return p, bn


# ---------------------------------------------------------------------------
# primitive layers

def linear_forward(x, w, b):
    y = x @ w
    y += b
    return y, (x, w)


def linear_backward(dy, cache):
    x, w = cache
    dw = x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    return dy @ w.T, dw, db


def matmul_forward(x, w):
    return x @ w, (x, w)


def matmul_backward(dy, cache):
    x, w = cache
    dw = x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])
    return dy @ w.T, dw


def layernorm_forward(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def layernorm_backward(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0)
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dxhat = dy * g
    dx = inv * (dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dg, db


def gelu_forward(x):
    # exact erf form; phi = 0.5 * (1 + erf(x / sqrt 2)), built in one buffer.
    # imported here: scipy.special costs ~0.3-0.4 s and ~25 MB to import, and
    # a process that never encodes (analyze, demo) need not pay it
    from scipy.special import erf
    phi = x / math.sqrt(2.0)
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return x * phi, (x, phi)


def gelu_backward(dy, cache):
    # dy * (phi + x * pdf(x)), built in one buffer
    x, phi = cache
    t = -0.5 * x
    t *= x
    np.exp(t, out=t)
    t /= math.sqrt(2.0 * math.pi)
    t *= x
    t += phi
    t *= dy
    return t


def relu_forward(x):
    mask = x > 0.0
    return x * mask, mask


def relu_backward(dy, mask):
    return dy * mask


def batchnorm_forward(x, g, b, stats_key, bn_stats, train: bool):
    """Batch norm over the batch axis of a (B, F) matrix.

    Training uses current-batch statistics (variance floored by ``BN_EPS``)
    and advances the running statistics; inference mode reads the stored
    statistics and leaves them untouched, so it is idempotent. ``g``/``b``
    are None for the non-learnable variant.
    """
    if train:
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        m = bn_stats[f"{stats_key}.mean"]
        v = bn_stats[f"{stats_key}.var"]
        n = x.shape[0]
        var_run = var * n / (n - 1) if n > 1 else var
        m *= 1.0 - BN_MOMENTUM
        m += BN_MOMENTUM * mu
        v *= 1.0 - BN_MOMENTUM
        v += BN_MOMENTUM * var_run
    else:
        mu = bn_stats[f"{stats_key}.mean"]
        var = bn_stats[f"{stats_key}.var"]
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mu) * inv
    y = xhat if g is None else g * xhat + b
    return y, (x, mu, inv, xhat, g, train)


def batchnorm_backward(dy, cache):
    x, mu, inv, xhat, g, train = cache
    if not train:
        scale = inv if g is None else g * inv
        dg = None if g is None else (dy * xhat).sum(axis=0)
        db = None if g is None else dy.sum(axis=0)
        return dy * scale, dg, db
    n = x.shape[0]
    dxhat = dy if g is None else dy * g
    xc = x - mu
    dvar = (dxhat * xc).sum(axis=0) * (-0.5) * inv ** 3
    dmu = -(dxhat.sum(axis=0)) * inv + dvar * (-2.0 / n) * xc.sum(axis=0)
    dx = dxhat * inv + dvar * 2.0 * xc / n + dmu / n
    dg = None if g is None else (dy * xhat).sum(axis=0)
    db = None if g is None else dy.sum(axis=0)
    return dx, dg, db


def attention_forward(x, w_qkv, b_qkv, w_out, b_out, n_heads: int,
                      n_query: int | None = None):
    """Multi-head self-attention of ``x`` (B, L, D).

    Only the first ``n_query`` rows (all by default) query: the output is
    (B, n_query, D), while keys and values still come from every token.
    """
    batch, length, dim = x.shape
    nq = length if n_query is None else n_query
    dh = dim // n_heads
    qkv = x @ w_qkv + b_qkv                              # (B, L, 3D)
    qkv = qkv.reshape(batch, length, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    q, k, v = qkv[0, :, :, :nq], qkv[1], qkv[2]          # (B, H, L|nq, dh)
    scores = q @ np.swapaxes(k, -1, -2) / math.sqrt(dh)  # (B, H, nq, L)
    scores -= scores.max(axis=-1, keepdims=True)
    ex = np.exp(scores)
    attn = ex / ex.sum(axis=-1, keepdims=True)
    ctx = attn @ v                                       # (B, H, nq, dh)
    merged = ctx.transpose(0, 2, 1, 3).reshape(batch, nq, dim)
    out = merged @ w_out + b_out
    return out, (x, w_qkv, w_out, q, k, v, attn, merged)


def attention_backward(dout, cache, n_heads: int):
    x, w_qkv, w_out, q, k, v, attn, merged = cache
    batch, length, dim = x.shape
    nq = q.shape[2]
    dh = dim // n_heads
    dw_out = merged.reshape(-1, dim).T @ dout.reshape(-1, dim)
    db_out = dout.reshape(-1, dim).sum(axis=0)
    dmerged = dout @ w_out.T
    dctx = dmerged.reshape(batch, nq, n_heads, dh).transpose(0, 2, 1, 3)
    dattn = dctx @ np.swapaxes(v, -1, -2)
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores /= math.sqrt(dh)
    # dq, dk, dv land straight in their (B, L, 3, H, dh) slots; rows that
    # did not query get no dq
    alloc = np.empty if nq == length else np.zeros
    dqkv = alloc((batch, length, 3, n_heads, dh))
    slot = dqkv.transpose(2, 0, 3, 1, 4)                 # (3, B, H, L, dh)
    np.matmul(dscores, k, out=slot[0, :, :, :nq])
    np.matmul(np.swapaxes(dscores, -1, -2), q, out=slot[1])
    np.matmul(np.swapaxes(attn, -1, -2), dctx, out=slot[2])
    dqkv = dqkv.reshape(batch, length, 3 * dim)
    dw_qkv = x.reshape(-1, dim).T @ dqkv.reshape(-1, 3 * dim)
    db_qkv = dqkv.reshape(-1, 3 * dim).sum(axis=0)
    dx = dqkv @ w_qkv.T
    return dx, dw_qkv, db_qkv, dw_out, db_out


# ---------------------------------------------------------------------------
# transformer stack

def patchify(cfg: BackboneConfig, params: dict, pixels: np.ndarray,
             indices: np.ndarray):
    """Embed the sampled patches of each view into a token sequence.

    Args:
        pixels: (B, S, S, 3) view pixels, S = cfg.image_size.
        indices: (B, k) full-grid patch indices kept for each sample.

    Returns ``(tokens, cache)`` with tokens (B, k + 1, D): class token first,
    then the sampled patches with positional codes of their original grid
    positions.
    """
    pixels = np.asarray(pixels, dtype=float)
    indices = np.asarray(indices)
    if pixels.ndim != 4 or pixels.shape[1] != cfg.image_size \
            or pixels.shape[2] != cfg.image_size or pixels.shape[3] != 3:
        raise ValueError(f"expected (B, {cfg.image_size}, {cfg.image_size}, 3) pixels")
    if indices.ndim != 2 or pixels.shape[0] != indices.shape[0]:
        raise ValueError("indices must be (B, k) aligned with pixels")
    if indices.size and (indices.min() < 0 or indices.max() >= cfg.n_patches):
        raise IndexError("patch index out of grid")
    batch, k = indices.shape
    g, p = cfg.grid_side, cfg.patch_size
    flat = pixels.reshape(batch, g, p, g, p, 3).transpose(0, 1, 3, 2, 4, 5)
    flat = flat.reshape(batch, cfg.n_patches, cfg.patch_dim)
    gathered = np.take_along_axis(flat, indices[:, :, None], axis=1)
    tok = gathered @ params["embed.w"] + params["embed.b"]    # (B, k, D)
    cls = np.broadcast_to(params["cls"], (batch, 1, cfg.token_dim))
    tokens = np.concatenate([cls, tok], axis=1)
    pos_ids = np.concatenate(
        [np.zeros((batch, 1), dtype=int), indices.astype(int) + 1], axis=1
    )
    tokens = tokens + _position_table(cfg, params)[pos_ids]
    return tokens, (gathered, pos_ids)


def patchify_backward(cfg: BackboneConfig, dtokens: np.ndarray, cache) -> dict:
    gathered, pos_ids = cache
    grads = {}
    grads["cls"] = dtokens[:, 0, :].sum(axis=0)
    dpatch = dtokens[:, 1:, :]
    grads["embed.w"] = gathered.reshape(-1, gathered.shape[-1]).T \
        @ dpatch.reshape(-1, cfg.token_dim)
    grads["embed.b"] = dpatch.reshape(-1, cfg.token_dim).sum(axis=0)
    if cfg.pos_mode == "learnable":
        dpos = np.zeros((cfg.n_patches + 1, cfg.token_dim))
        np.add.at(dpos, pos_ids.ravel(),
                  dtokens.reshape(-1, cfg.token_dim))
        grads["pos"] = dpos
    return grads


def _block_forward(cfg, params, pre, x, n_query=None):
    """One pre-norm block; with ``n_query`` only the first ``n_query`` rows
    are computed past the attention, so the output is (B, n_query, D)."""
    a, ln1_c = layernorm_forward(x, params[f"{pre}.ln1.g"], params[f"{pre}.ln1.b"])
    attn_out, attn_c = attention_forward(
        a, params[f"{pre}.attn.w_qkv"], params[f"{pre}.attn.b_qkv"],
        params[f"{pre}.attn.w_out"], params[f"{pre}.attn.b_out"], cfg.n_heads,
        n_query,
    )
    x1 = x[:, :attn_out.shape[1]] + attn_out
    b, ln2_c = layernorm_forward(x1, params[f"{pre}.ln2.g"], params[f"{pre}.ln2.b"])
    h, lin1_c = linear_forward(b, params[f"{pre}.mlp.w1"], params[f"{pre}.mlp.b1"])
    hg, gelu_c = gelu_forward(h)
    m, lin2_c = linear_forward(hg, params[f"{pre}.mlp.w2"], params[f"{pre}.mlp.b2"])
    return x1 + m, (ln1_c, attn_c, ln2_c, lin1_c, gelu_c, lin2_c)


def _block_backward(cfg, pre, dy, cache, grads):
    ln1_c, attn_c, ln2_c, lin1_c, gelu_c, lin2_c = cache
    dhg, dw2, db2 = linear_backward(dy, lin2_c)
    grads[f"{pre}.mlp.w2"] = dw2
    grads[f"{pre}.mlp.b2"] = db2
    dh = gelu_backward(dhg, gelu_c)
    db_, dw1, db1 = linear_backward(dh, lin1_c)
    grads[f"{pre}.mlp.w1"] = dw1
    grads[f"{pre}.mlp.b1"] = db1
    dx1, dg2, dbeta2 = layernorm_backward(db_, ln2_c)
    dx1 = dx1 + dy                               # residual around the MLP
    grads[f"{pre}.ln2.g"] = dg2
    grads[f"{pre}.ln2.b"] = dbeta2
    da, dw_qkv, db_qkv, dw_out, db_out = attention_backward(dx1, attn_c, cfg.n_heads)
    grads[f"{pre}.attn.w_qkv"] = dw_qkv
    grads[f"{pre}.attn.b_qkv"] = db_qkv
    grads[f"{pre}.attn.w_out"] = dw_out
    grads[f"{pre}.attn.b_out"] = db_out
    dx, dg1, dbeta1 = layernorm_backward(da, ln1_c)
    grads[f"{pre}.ln1.g"] = dg1
    grads[f"{pre}.ln1.b"] = dbeta1
    dx[:, :dx1.shape[1]] += dx1                  # residual around attention
    return dx


def encode(cfg: BackboneConfig, params: dict, tokens: np.ndarray,
           cache: bool = True):
    """Pre-norm transformer blocks then final norm; class-token output.

    Only the class token's output is kept, so the last block queries with the
    class token alone: its attention output, MLP and the final norm run on
    (B, 1, D), while its keys and values still use every token.

    Returns ``(rep, cache)`` with rep (B, D). With ``cache=False`` the cache
    is None, and each block's intermediates are dropped before the next
    block starts, so a pass that needs no backward holds one block's at a
    time; ``rep`` is the same either way. Raises with the offending block
    index if activations go non-finite.
    """
    x = tokens
    block_caches = []
    for i in range(cfg.n_blocks):
        n_query = 1 if i == cfg.n_blocks - 1 else None
        x, c = _block_forward(cfg, params, f"blocks.{i}", x, n_query)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"non-finite activations after block {i}")
        if cache:
            block_caches.append(c)
        del c
    out, ln_c = layernorm_forward(x, params["norm.g"], params["norm.b"])
    rep = out[:, 0, :]
    return rep, ((block_caches, ln_c) if cache else None)


def encode_backward(cfg: BackboneConfig, drep: np.ndarray, cache):
    """Gradients of every encoder parameter plus the token-input gradient."""
    block_caches, ln_c = cache
    grads: dict = {}
    dx, dg, db = layernorm_backward(drep[:, None, :], ln_c)
    grads["norm.g"] = dg
    grads["norm.b"] = db
    for i in reversed(range(cfg.n_blocks)):
        dx = _block_backward(cfg, f"blocks.{i}", dx, block_caches[i], grads)
    return dx, grads


# ---------------------------------------------------------------------------
# heads

def _head_forward(name, dims, params, bn_stats, x, train):
    caches = []
    h = x
    for i in range(len(dims)):
        last = i == len(dims) - 1
        h, lin_c = matmul_forward(h, params[f"{name}.{i}.w"])
        g = None if last else params[f"{name}.bn{i}.g"]
        b = None if last else params[f"{name}.bn{i}.b"]
        h, bn_c = batchnorm_forward(h, g, b, f"{name}.bn{i}", bn_stats, train)
        if last:
            caches.append((lin_c, bn_c, None))
        else:
            h, mask = relu_forward(h)
            caches.append((lin_c, bn_c, mask))
    return h, caches


def _head_backward(name, dims, dy, caches, grads):
    for i in reversed(range(len(dims))):
        lin_c, bn_c, mask = caches[i]
        if mask is not None:
            dy = relu_backward(dy, mask)
        dy, dg, db = batchnorm_backward(dy, bn_c)
        if dg is not None:
            grads[f"{name}.bn{i}.g"] = dg
            grads[f"{name}.bn{i}.b"] = db
        dy, dw = matmul_backward(dy, lin_c)
        grads[f"{name}.{i}.w"] = dw
    return dy


def project(heads: HeadConfig, params: dict, bn_stats: dict, rep: np.ndarray,
            train: bool = True):
    """Projection MLP producing the contrastive target embedding z."""
    return _head_forward("proj", heads.proj_dims, params, bn_stats, rep, train)


def project_backward(heads: HeadConfig, dz: np.ndarray, caches, grads: dict):
    return _head_backward("proj", heads.proj_dims, dz, caches, grads)


def predict(heads: HeadConfig, params: dict, bn_stats: dict, z: np.ndarray,
            train: bool = True):
    """Prediction MLP mapping z to the online-branch embedding q."""
    return _head_forward("pred", heads.pred_dims, params, bn_stats, z, train)


def predict_backward(heads: HeadConfig, dq: np.ndarray, caches, grads: dict):
    return _head_backward("pred", heads.pred_dims, dq, caches, grads)


# ---------------------------------------------------------------------------
# full branch: pixels -> tokens -> rep -> z -> q
#
# A branch is an encoder half (pixels -> rep), which reads the parameters
# only, and a head half (rep -> z -> q), whose batch norms advance the
# running statistics in place. The encoder halves of different views are
# therefore independent and may run concurrently; the head halves may not.

def encode_view(cfg: BackboneConfig, params: dict, pixels: np.ndarray,
                indices: np.ndarray, cache: bool = True):
    """Encoder half of one view's forward pass. Returns (rep, cache); with
    ``cache=False`` the cache is None and none is kept (see :func:`encode`)."""
    tokens, patch_c = patchify(cfg, params, pixels, indices)
    if not cache:
        return encode(cfg, params, tokens, cache=False)
    rep, enc_c = encode(cfg, params, tokens)
    return rep, (patch_c, enc_c)


def encode_view_backward(cfg: BackboneConfig, drep: np.ndarray, cache) -> dict:
    """Gradients of every encoder parameter from the representation's."""
    patch_c, enc_c = cache
    dtokens, grads = encode_backward(cfg, drep, enc_c)
    grads.update(patchify_backward(cfg, dtokens, patch_c))
    return grads


def heads_forward(heads: HeadConfig, params: dict, bn_stats: dict,
                  rep: np.ndarray, train: bool = True):
    """Head half of one view's forward pass. Returns (z, q, cache)."""
    z, proj_c = project(heads, params, bn_stats, rep, train)
    q, pred_c = predict(heads, params, bn_stats, z, train)
    return z, q, (proj_c, pred_c)


def heads_backward(heads: HeadConfig, cache, dq: np.ndarray):
    """Head parameter gradients and the representation gradient:
    ``(drep, grads)``. ``dq`` is as in :func:`backward_branch`."""
    proj_c, pred_c = cache
    grads: dict = {}
    dz = predict_backward(heads, dq, pred_c, grads)
    return project_backward(heads, dz, proj_c, grads), grads


def forward_branch(cfg: BackboneConfig, heads: HeadConfig, params: dict,
                   bn_stats: dict, pixels: np.ndarray, indices: np.ndarray,
                   train: bool = True):
    """Full forward pass of one view. Returns (z, q, cache)."""
    rep, enc_c = encode_view(cfg, params, pixels, indices)
    z, q, head_c = heads_forward(heads, params, bn_stats, rep, train)
    return z, q, (enc_c, head_c)


def backward_branch(cfg: BackboneConfig, heads: HeadConfig, cache,
                    dq: np.ndarray) -> dict:
    """Exact parameter gradients of one view's forward pass.

    ``dq`` is the loss gradient at the prediction output. The projection
    output z gets its gradient through the prediction head only: under the
    stop-gradient objective the loss's partial with respect to z is zero,
    since targets are constants.
    """
    enc_c, head_c = cache
    drep, grads = heads_backward(heads, head_c, dq)
    grads.update(encode_view_backward(cfg, drep, enc_c))
    return grads


def accumulate_grads(total: dict, part: dict) -> dict:
    """Sum per-parameter gradients across view passes, in place on ``total``."""
    for name, g in part.items():
        if name in total:
            total[name] += g
        else:
            total[name] = g.copy()
    return total

