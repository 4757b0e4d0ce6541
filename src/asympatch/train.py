"""End-to-end training harness: two augmented crops per image, asymmetric
patch sampling, shared-weight encoder forward on every view, stop-gradient
contrastive loss across crop branches, optional adaptive clipping, adaptive
moment update, and optional momentum (target) encoder.

All randomness in a run flows through the single generator stored on
:class:`TrainState`, and batches are drawn per step from that generator, so
a checkpointed state resumes bit-exactly: the resumed run reproduces the
unbroken run's loss at the next step. A step draws the batch pick, then
every view of the batch as arrays: the augmentation draws of both crops of
every record (:func:`~asympatch.data.draw_views`), then the patch samples
(:func:`~asympatch.sampling.sample_views`).

With more than two sampling views the views are split between the two crop
branches; branch-1 views are disjoint uniform samples, branch-2 views are
disjoint selective samples weighted against the union of branch-1's sampled
patches, and the loss averages over ordered cross-branch pairs only
(within-branch pairs share crop geometry and provide little asymmetry).

The views meet only in the loss, so each view's encoder pass, and each chunk
of the kNN probe's embeddings, runs as one encoder job on the worker pool
(:mod:`asympatch.pool`); the heads, the gradient sum and the optimizer
stay on the caller in view order. A job names its crop, the batch's sources
and that crop's slice of the draws, and the process that runs it renders
the crop's pixels (:func:`~asympatch.data.render_views`); the jobs
alternate crop by crop, so with two processes the caller renders crop 1 and
the worker crop 2. Every value is byte-identical to the serial loop,
whatever the process count.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import encoder as enc
from . import pool
from .data import (AugmentParams, ImageRecord, ViewDraws, cifar_augment_params,
                   draw_views, identity_augment_params, load_cifar,
                   synth_dataset, synth_manifest)
from .objective import multiview_loss
from .optim import (AdamWState, ClipState, EmaSchedule, adamw_step,
                    clip_update, cosine_lr, momentum_encoder_update)
from .sampling import SamplerConfig, sample_views
from .serialize import CheckpointError, load_arrays, save_arrays

METRIC_FIELDS = ("step", "lr", "loss", "grad_norm", "clip_triggered")


@dataclass(frozen=True)
class DatasetSpec:
    """Where training images come from: synthetic gratings or binary files."""

    kind: str = "synthetic"          # "synthetic" | "cifar"
    n_classes: int = 2
    n_per_class: int = 128
    image_size: int = 16
    seed: int = 0
    path: str = ""

    def __post_init__(self):
        if self.kind not in ("synthetic", "cifar"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "cifar" and not self.path:
            raise ValueError("cifar dataset needs a path")


def load_dataset(spec: DatasetSpec) -> list[ImageRecord]:
    if spec.kind == "cifar":
        return load_cifar(spec.path)
    return synth_dataset(spec.n_per_class, spec.n_classes, spec.image_size,
                         spec.seed)


@dataclass(frozen=True)
class TrainConfig:
    backbone: str = "vit-micro"
    heads: str = "micro"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    tau: float = 0.1
    base_lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.05
    batch_size: int = 32
    warmup_steps: int = 10
    total_steps: int = 200
    clip_enabled: bool = False
    clip_m: float = 0.4
    clip_alpha: float = 1.05
    momentum_encoder: bool = False
    ema_start: float = 0.99
    ema_end: float = 1.0
    seed: int = 0
    checkpoint_every: int = 0        # 0: only the final checkpoint
    knn_k: int = 5

    def __post_init__(self):
        if self.backbone not in enc.BACKBONES:
            raise ValueError(f"unknown backbone {self.backbone!r}; choose from "
                             f"{', '.join(enc.BACKBONES)}")
        if self.heads not in enc.HEADS:
            raise ValueError(f"unknown heads {self.heads!r}; choose from "
                             f"{', '.join(enc.HEADS)}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.base_lr) and self.base_lr > 0.0):
            raise ValueError(f"base_lr must be finite and > 0, got "
                             f"{self.base_lr}")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValueError(f"weight_decay must be finite and >= 0, got "
                             f"{self.weight_decay}")
        if not (np.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        # rejects a bad clip_m or clip_alpha before any step, clip on or off
        ClipState(m=self.clip_m, alpha=self.clip_alpha)
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError(f"warmup_steps must lie in [0, total_steps = "
                             f"{self.total_steps}], got {self.warmup_steps}")
        if self.knn_k < 1:
            raise ValueError(f"knn_k must be >= 1, got {self.knn_k}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got "
                             f"{self.checkpoint_every}")

    def backbone_config(self) -> enc.BackboneConfig:
        return enc.BACKBONES[self.backbone]

    def head_config(self) -> enc.HeadConfig:
        return enc.HEADS[self.heads]

    def augment_params(self) -> AugmentParams:
        """The augmentation both crop branches share."""
        return cifar_augment_params(view_size=self.backbone_config().image_size)


def smoke_config(**overrides) -> TrainConfig:
    """Desk-scale preset: micro backbone, synthetic 2-class data, 200 steps."""
    cfg = TrainConfig(
        backbone="vit-micro",
        heads="micro",
        dataset=DatasetSpec(kind="synthetic", n_classes=2, n_per_class=128,
                            image_size=16, seed=7),
        sampler=SamplerConfig(s1=0.25, s2=0.25, gamma=3.0, n_views=2),
        tau=0.1,
        base_lr=2e-3,
        weight_decay=0.05,
        batch_size=32,
        warmup_steps=10,
        total_steps=200,
        seed=0,
    )
    return replace(cfg, **overrides) if overrides else cfg


def cifar_config(dataset_path: str = "", dataset_size: int = 50_000) -> TrainConfig:
    """Full CIFAR pretraining recipe: ViT-Tiny/2 backbone, temperature 0.1,
    sampling ratio 0.25 at power 3, batch 512, lr 1e-3, weight decay 0.05,
    20 warmup epochs of 1600 total, clipping and momentum encoder disabled."""
    steps_per_epoch = (dataset_size + 511) // 512
    return TrainConfig(
        backbone="vit-tiny-2",
        heads="cifar",
        dataset=DatasetSpec(kind="cifar", path=dataset_path),
        sampler=SamplerConfig(s1=0.25, s2=0.25, gamma=3.0, n_views=2),
        tau=0.1,
        base_lr=1e-3,
        weight_decay=0.05,
        batch_size=512,
        warmup_steps=20 * steps_per_epoch,
        total_steps=1600 * steps_per_epoch,
        clip_enabled=False,
        momentum_encoder=False,
    )


@dataclass
class TrainState:
    config: TrainConfig
    step: int
    params: dict
    opt: AdamWState
    clip: dict
    rng: np.random.Generator
    metrics: list
    target_params: dict | None = None


def clip_group_of(param_name: str) -> str:
    """Parameter-group key for adaptive clipping: one group per transformer
    block, one per head, one for the embedding/norm stem."""
    if param_name.startswith("blocks."):
        return "block" + param_name.split(".")[1]
    if param_name.startswith("proj."):
        return "proj"
    if param_name.startswith("pred."):
        return "pred"
    return "stem"


def init_train_state(config: TrainConfig) -> TrainState:
    rng = np.random.default_rng(config.seed)
    params = enc.init_params(config.backbone_config(), config.head_config(),
                             rng)
    state = TrainState(
        config=config,
        step=0,
        params=params,
        opt=AdamWState(betas=config.betas, weight_decay=config.weight_decay),
        clip={},
        rng=rng,
        metrics=[],
    )
    if config.momentum_encoder:
        state.target_params = {k: v.copy() for k, v in params.items()}
    return state


def _draw(state: TrainState, records):
    """Crop 1 then crop 2 of every record, and every sampled view of them,
    drawn from ``state.rng``: ``(crop1, crop2, views1, views2, profiles)``.
    A crop is ``(sources, draws)``, the batch's (B, H, W, 3) pixels and that
    crop's :class:`~asympatch.data.ViewDraws`, which
    :func:`~asympatch.data.render_views` turns into its views' pixels."""
    cfg = state.config
    src = np.stack([np.asarray(r.pixels, dtype=float) for r in records])
    b = len(src)
    draws = draw_views(2 * b, *src.shape[1:3], cfg.augment_params(),
                       state.rng)
    views1, views2, profiles = sample_views(
        state.rng, draws.box[:, :b], draws.box[:, b:],
        cfg.backbone_config().grid_side, cfg.sampler, draws.flip[:b],
        draws.flip[b:])
    return ((src, draws.take(slice(b))), (src, draws.take(slice(b, None))),
            views1, views2, profiles)


def train_step(state: TrainState, batch_records, dump_path=None) -> float:
    """One full optimization step on a batch of image records (see the module
    docstring)."""
    cfg = state.config
    bb = cfg.backbone_config()
    hc = cfg.head_config()
    crop1, crop2, views1, views2, _ = _draw(state, batch_records)
    views = [(0, idx) for idx in views1] + [(1, idx) for idx in views2]
    # jobs crop by crop, alternating: view j of crop 1, then of crop 2, ...
    rank = [*range(len(views1)), *range(len(views2))]
    order = sorted(range(len(views)), key=lambda v: (rank[v], v))
    job_of = np.argsort(order)       # view -> its job
    nets, jobs = [state.params], [(0, *views[v], True) for v in order]
    if cfg.momentum_encoder:     # the target network needs no backward
        nets.append(state.target_params)
        jobs += [(1, *views[v], False) for v in order]
    reps = pool._encode(bb, nets, [crop1, crop2], jobs)

    pairs, head_caches = [], []      # (q, z_for_targets), heads' caches
    for j in job_of:
        z, q, head_c = enc.heads_forward(hc, state.params, reps[j])
        pairs.append((q, z))
        head_caches.append(head_c)
    if cfg.momentum_encoder:
        for v, j in enumerate(job_of):
            z_t, _ = enc.project(hc, state.target_params, reps[len(views) + j])
            pairs[v] = (pairs[v][0], z_t)

    ids1 = range(len(views1))
    ids2 = range(len(views1), len(views))
    ordered = [(j, k) for j in ids1 for k in ids2]
    ordered += [(k, j) for j in ids1 for k in ids2]
    result = multiview_loss(pairs, cfg.tau, ordered_pairs=ordered)
    loss = result.value
    if not np.isfinite(loss):
        if dump_path:
            checkpoint_save(state, dump_path)
        raise RuntimeError(
            f"non-finite loss at step {state.step}"
            + (f"; state dumped to {dump_path}" if dump_path else "")
        )

    heads = [enc.heads_backward(hc, c, dq)
             for c, dq in zip(head_caches, result.grad_q)]
    enc_grads = pool._encode_backward(bb, [heads[v][0] for v in order])
    grads = {}
    for (_, view_grads), j in zip(heads, job_of):
        view_grads.update(enc_grads[j])
        enc.accumulate_grads(grads, view_grads)

    clip_hit = False
    if cfg.clip_enabled:
        clip_hit = _clip_groups(state, grads)
    grad_norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))

    lr = cosine_lr(state.step, cfg.warmup_steps, cfg.total_steps, cfg.base_lr)
    adamw_step(state.opt, state.params, grads, lr)
    if cfg.momentum_encoder:
        sched = EmaSchedule(cfg.ema_start, cfg.ema_end, cfg.total_steps)
        momentum_encoder_update(state.params, state.target_params,
                                sched.coefficient(state.step))
    state.metrics.append((state.step, lr, loss, grad_norm, float(clip_hit)))
    state.step += 1
    return loss


def _clip_groups(state: TrainState, grads: dict) -> bool:
    cfg = state.config
    groups: dict[str, list[str]] = {}
    for name in sorted(grads):
        groups.setdefault(clip_group_of(name), []).append(name)
    any_trigger = False
    for gname, names in sorted(groups.items()):
        flat = np.concatenate([grads[n].ravel() for n in names])
        if gname not in state.clip:
            state.clip[gname] = ClipState(m=cfg.clip_m, alpha=cfg.clip_alpha)
        clipped = clip_update(state.clip[gname], flat)
        if clipped is not flat:
            any_trigger = True
        pos = 0
        for n in names:
            size = grads[n].size
            grads[n] = clipped[pos:pos + size].reshape(grads[n].shape)
            pos += size
    return any_trigger


def metrics_csv(metrics) -> str:
    lines = [",".join(METRIC_FIELDS)]
    for row in metrics:
        step, lr, loss, gn, hit = row
        lines.append(f"{int(step)},{lr!r},{loss!r},{gn!r},{int(hit)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# evaluation

def embed_records(config: TrainConfig, params: dict, records,
                  batch: int = 16) -> np.ndarray:
    """Full-image (all patches kept) class-token representations.

    Each image is rendered whole, unflipped and uncoloured, at the
    backbone's input size (bit for bit the image where the sizes agree).
    Records are encoded in chunks of ``batch``, one encoder job per chunk.
    No encoder operation mixes records, so the result does not depend on
    ``batch``.
    """
    bb = config.backbone_config()
    whole = identity_augment_params(bb.image_size)
    all_idx = np.arange(bb.n_patches)
    chunks = [records[i:i + batch] for i in range(0, len(records), batch)]
    crops = []
    for chunk in chunks:
        src = np.stack([r.pixels for r in chunk])
        n, height, width = src.shape[:3]
        box = np.tile([[0.0], [0.0], [width], [height]], n)
        crops.append((src, ViewDraws(whole, box, np.zeros(n, bool), ())))
    return np.concatenate(pool._encode(bb, [params], crops, [
        (0, c, np.broadcast_to(all_idx, (len(chunk), bb.n_patches)), False)
        for c, chunk in enumerate(chunks)]), axis=0)


def knn_probe(config: TrainConfig, params: dict, train_records, eval_records,
              k: int | None = None) -> float:
    """Cosine k-nearest-neighbor accuracy of frozen representations."""
    k = k if k is not None else config.knn_k
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(train_records):
        raise ValueError(f"k={k} exceeds {len(train_records)} reference samples")
    ref = embed_records(config, params, train_records)
    qry = embed_records(config, params, eval_records)
    ref = ref / np.linalg.norm(ref, axis=1, keepdims=True)
    qry = qry / np.linalg.norm(qry, axis=1, keepdims=True)
    sims = qry @ ref.T
    labels = np.array([r.label for r in train_records])
    eval_labels = np.array([r.label for r in eval_records])
    top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    votes = labels[top]
    n_classes = int(max(labels.max(), eval_labels.max())) + 1
    counts = np.stack([(votes == c).sum(axis=1) for c in range(n_classes)], axis=1)
    pred = counts.argmax(axis=1)
    return float((pred == eval_labels).mean())


def probe_split(records, config: TrainConfig):
    """Deterministic half/half reference/held-out split for the probe."""
    rng = np.random.default_rng(config.seed + 0x5EED)
    order = rng.permutation(len(records))
    half = len(records) // 2
    return [records[i] for i in order[:half]], [records[i] for i in order[half:]]


# ---------------------------------------------------------------------------
# run loop and checkpointing

def run_training(config: TrainConfig, out_dir=None,
                 state: TrainState | None = None,
                 steps: int | None = None) -> TrainState:
    """Run (or continue) training; writes metrics and checkpoints under
    ``out_dir`` when given."""
    records = load_dataset(config.dataset)
    if len(records) < config.batch_size:
        raise ValueError("dataset smaller than one batch")
    if out_dir and config.dataset.kind == "synthetic":
        ds = config.dataset
        with open(os.path.join(out_dir, "dataset_manifest.txt"), "w") as fh:
            fh.write(synth_manifest(ds.n_per_class, ds.n_classes,
                                    ds.image_size, ds.seed))
    if state is None:
        state = init_train_state(config)
    stop = min(config.total_steps, state.step + steps) if steps else config.total_steps
    dump_path = os.path.join(out_dir, "nan_state.ckpt") if out_dir else None
    while state.step < stop:
        pick = state.rng.choice(len(records), size=config.batch_size,
                                replace=False)
        train_step(state, [records[i] for i in pick], dump_path=dump_path)
        if out_dir and config.checkpoint_every \
                and state.step % config.checkpoint_every == 0:
            checkpoint_save(state, os.path.join(out_dir,
                                                f"step{state.step:06d}.ckpt"))
    if out_dir:
        with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
            fh.write(metrics_csv(state.metrics))
        checkpoint_save(state, os.path.join(out_dir, "final.ckpt"))
    return state


def config_from_meta(meta: dict) -> TrainConfig:
    meta = dict(meta)
    meta["dataset"] = DatasetSpec(**meta["dataset"])
    meta["sampler"] = SamplerConfig(**meta["sampler"])
    meta["betas"] = tuple(meta["betas"])
    return TrainConfig(**meta)


def checkpoint_save(state: TrainState, path) -> None:
    arrays = {f"params.{name}": a for name, a in state.params.items()}
    for name, a in state.opt.m.items():
        arrays[f"opt.m.{name}"] = a
        arrays[f"opt.v.{name}"] = state.opt.v[name]
    for name, a in (state.target_params or {}).items():
        arrays[f"target.{name}"] = a
    for gname, cs in state.clip.items():
        arrays[f"clip.{gname}"] = cs.ema_grad
    if state.metrics:
        arrays["metrics"] = np.array(state.metrics, dtype=float)
    meta = {
        "kind": "train_state",
        "config": asdict(state.config),
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
    }
    save_arrays(path, arrays, meta)


def _check_arrays(path, arrays: dict, config: TrainConfig, step: int) -> None:
    """Raise :class:`CheckpointError` unless ``arrays`` are the float64
    arrays, by name and shape, that :func:`checkpoint_save` writes for
    ``config`` at ``step``: the parameters; from
    the first step on, the AdamW moments and, with clipping on, each clip
    group's EMA; with the momentum encoder on, the target network's; and
    the metrics."""
    params = enc.param_shapes(config.backbone_config(), config.head_config())
    want = {f"params.{k}": s for k, s in params.items()}
    if step:
        want.update({f"opt.{m}.{k}": s for m in "mv" for k, s in params.items()})
    if step and config.clip_enabled:
        sizes: dict[str, int] = {}
        for k, s in params.items():
            sizes[clip_group_of(k)] = sizes.get(clip_group_of(k), 0) + math.prod(s)
        want.update({f"clip.{g}": (n,) for g, n in sizes.items()})
    if config.momentum_encoder:
        want.update({f"target.{k}": s for k, s in params.items()})
    if "metrics" in arrays:
        want["metrics"] = arrays["metrics"].shape[:1] + (len(METRIC_FIELDS),)
    wrong = {
        "missing": sorted(want.keys() - arrays.keys()),
        "unexpected": sorted(arrays.keys() - want.keys()),
        "wrong shape or dtype": sorted(
            k for k in want.keys() & arrays.keys()
            if arrays[k].shape != want[k] or arrays[k].dtype != np.float64),
    }
    found = [f"{what} {', '.join(names[:3])}"
             + (f" and {len(names) - 3} more" if len(names) > 3 else "")
             for what, names in wrong.items() if names]
    if found:
        raise CheckpointError(f"{path}: arrays do not match its config: "
                              + "; ".join(found))


def checkpoint_load(path) -> TrainState:
    """A state saved by :func:`checkpoint_save`. The config fixes each clip
    group's m and alpha and whether a target network is present, and each
    step makes exactly one optimizer step. Meta keys beyond ``kind``,
    ``config``, ``step`` and ``rng_state``, and the heads' batch-norm
    running statistics, online (arrays named ``bn.*``) and target, which
    older checkpoints carry, are ignored. Any other array that does not
    match the config and step, by name, shape or dtype, raises
    :class:`CheckpointError`."""
    arrays, meta = load_arrays(path)
    if meta.get("kind") != "train_state":
        raise CheckpointError(f"{path} is not a training checkpoint")
    missing = [k for k in ("config", "step", "rng_state") if k not in meta]
    if missing:
        raise CheckpointError(f"{path}: training checkpoint lacks {missing}")
    try:
        config = config_from_meta(meta["config"])
    except (TypeError, KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad training config: {exc!r}") from exc
    step = meta["step"]
    if not (type(step) is int and step >= 0):
        raise CheckpointError(f"{path}: step must be a non-negative int")

    arrays = {k: v for k, v in arrays.items()
              if not k.removeprefix("target_").startswith("bn.")}
    _check_arrays(path, arrays, config, step)

    def group(prefix):
        return {k[len(prefix):]: v for k, v in arrays.items()
                if k.startswith(prefix)}

    opt = AdamWState(betas=config.betas, weight_decay=config.weight_decay,
                     step=step, m=group("opt.m."), v=group("opt.v."))
    clip = {gname: ClipState(m=config.clip_m, alpha=config.clip_alpha,
                             ema_grad=ema)
            for gname, ema in group("clip.").items()}
    try:
        rng = np.random.default_rng()
        rng.bit_generator.state = meta["rng_state"]
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: bad rng_state: {exc!r}") from exc
    # as Python floats: a numpy scalar's repr would reach metrics.csv
    rows = arrays.get("metrics", np.empty((0, len(METRIC_FIELDS))))
    metrics = [tuple(row) for row in rows.tolist()]
    return TrainState(
        config=config, step=step, params=group("params."), opt=opt,
        clip=clip, rng=rng, metrics=metrics,
        target_params=group("target.") if config.momentum_encoder else None,
    )
