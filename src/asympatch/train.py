"""End-to-end training harness: two augmented crops per image, asymmetric
patch sampling, shared-weight encoder forward on every view, stop-gradient
contrastive loss across crop branches, optional adaptive clipping, adaptive
moment update, and optional momentum (target) encoder.

All randomness in a run flows through the single generator stored on
:class:`TrainState`, and batches are drawn per step from that generator, so
a checkpointed state resumes bit-exactly: the resumed run reproduces the
unbroken run's loss at the next step. A step draws the batch pick, then
every view of the batch as arrays: both crops of every record
(:func:`~asympatch.data.augment_batch`), then the patch samples
(:func:`~asympatch.sampling.sample_views`).

With more than two sampling views the views are split between the two crop
branches; branch-1 views are disjoint uniform samples, branch-2 views are
disjoint selective samples weighted against the union of branch-1's sampled
patches, and the loss averages over ordered cross-branch pairs only
(within-branch pairs share crop geometry and provide little asymmetry).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import encoder as enc
from .data import (AugmentParams, ImageRecord, augment_batch,
                   cifar_augment_params, load_cifar, synth_dataset,
                   synth_manifest)
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
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError(f"warmup_steps must lie in [0, total_steps = "
                             f"{self.total_steps}], got {self.warmup_steps}")

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
    bn_stats: dict
    opt: AdamWState
    clip: dict
    rng: np.random.Generator
    metrics: list
    target_params: dict | None = None
    target_bn: dict | None = None


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
    params, bn_stats = enc.init_params(config.backbone_config(),
                                       config.head_config(), rng)
    state = TrainState(
        config=config,
        step=0,
        params=params,
        bn_stats=bn_stats,
        opt=AdamWState(betas=config.betas, weight_decay=config.weight_decay),
        clip={},
        rng=rng,
        metrics=[],
    )
    if config.momentum_encoder:
        state.target_params = {k: v.copy() for k, v in params.items()}
        state.target_bn = {k: v.copy() for k, v in bn_stats.items()}
    return state


def _draw_views(state: TrainState, batch_records):
    """Crop 1 then crop 2 of every record, and every sampled view of them:
    ``(pix1, pix2, views1, views2, profiles)``."""
    cfg = state.config
    records = list(batch_records)
    b = len(records)
    pix, box, flip = augment_batch(records + records, cfg.augment_params(),
                                   state.rng)
    views1, views2, profiles = sample_views(
        state.rng, box[:, :b], box[:, b:], cfg.backbone_config().grid_side,
        cfg.sampler, flip[:b], flip[b:])
    return pix[:b], pix[b:], views1, views2, profiles


def train_step(state: TrainState, batch_records, dump_path=None) -> float:
    """One full optimization step on a batch of image records."""
    cfg = state.config
    bb = cfg.backbone_config()
    hc = cfg.head_config()
    pix1, pix2, views1, views2, _ = _draw_views(state, batch_records)

    branch = []          # (q, z_for_targets, cache, branch_id)
    for idx in views1:
        z, q, cache = enc.forward_branch(bb, hc, state.params, state.bn_stats,
                                         pix1, idx, train=True)
        branch.append([q, z, cache, 0])
    for idx in views2:
        z, q, cache = enc.forward_branch(bb, hc, state.params, state.bn_stats,
                                         pix2, idx, train=True)
        branch.append([q, z, cache, 1])
    if cfg.momentum_encoder:
        for entry, idx in zip(branch, list(views1) + list(views2)):
            pix = pix1 if entry[3] == 0 else pix2
            tokens, _ = enc.patchify(bb, state.target_params, pix, idx)
            rep, _ = enc.encode(bb, state.target_params, tokens)
            z_t, _ = enc.project(hc, state.target_params, state.target_bn,
                                 rep, train=True)
            entry[1] = z_t

    ids1 = [i for i, e in enumerate(branch) if e[3] == 0]
    ids2 = [i for i, e in enumerate(branch) if e[3] == 1]
    ordered = [(j, k) for j in ids1 for k in ids2]
    ordered += [(k, j) for j in ids1 for k in ids2]
    result = multiview_loss([(e[0], e[1]) for e in branch], cfg.tau,
                            ordered_pairs=ordered)
    loss = result.value
    if not np.isfinite(loss):
        if dump_path:
            checkpoint_save(state, dump_path)
        raise RuntimeError(
            f"non-finite loss at step {state.step}"
            + (f"; state dumped to {dump_path}" if dump_path else "")
        )

    grads = {}
    for e, dq in zip(branch, result.grad_q):
        enc.accumulate_grads(grads, enc.backward_branch(bb, hc, e[2], dq))
    for name, p in state.params.items():
        if name not in grads:
            grads[name] = np.zeros_like(p)

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
                  batch: int = 64) -> np.ndarray:
    """Full-image (all patches kept) class-token representations."""
    bb = config.backbone_config()
    all_idx = np.arange(bb.n_patches)
    out = []
    for start in range(0, len(records), batch):
        chunk = records[start:start + batch]
        pix = np.stack([r.pixels for r in chunk])
        idx = np.broadcast_to(all_idx, (len(chunk), bb.n_patches))
        tokens, _ = enc.patchify(bb, params, pix, idx)
        rep, _ = enc.encode(bb, params, tokens)
        out.append(rep)
    return np.concatenate(out, axis=0)


def knn_probe(config: TrainConfig, params: dict, train_records, eval_records,
              k: int | None = None) -> float:
    """Cosine k-nearest-neighbor accuracy of frozen representations."""
    k = k if k is not None else config.knn_k
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
        batch = [records[i] for i in pick]
        train_step(state, batch, dump_path=dump_path)
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
    arrays = {}
    for name, a in state.params.items():
        arrays[f"params.{name}"] = a
    for name, a in state.bn_stats.items():
        arrays[f"bn.{name}"] = a
    for name, a in state.opt.m.items():
        arrays[f"opt.m.{name}"] = a
        arrays[f"opt.v.{name}"] = state.opt.v[name]
    if state.target_params is not None:
        for name, a in state.target_params.items():
            arrays[f"target.{name}"] = a
        for name, a in state.target_bn.items():
            arrays[f"target_bn.{name}"] = a
    clip_meta = {}
    for gname, cs in state.clip.items():
        if cs.ema_grad is not None:
            arrays[f"clip.{gname}"] = cs.ema_grad
        clip_meta[gname] = {"m": cs.m, "alpha": cs.alpha}
    if state.metrics:
        arrays["metrics"] = np.array(state.metrics, dtype=float)
    meta = {
        "kind": "train_state",
        "config": asdict(state.config),
        "step": state.step,
        "opt_step": state.opt.step,
        "clip": clip_meta,
        "rng_state": state.rng.bit_generator.state,
        "has_target": state.target_params is not None,
    }
    save_arrays(path, arrays, meta)


def checkpoint_load(path) -> TrainState:
    arrays, meta = load_arrays(path)
    if meta.get("kind") != "train_state":
        raise CheckpointError(f"{path} is not a training checkpoint")
    missing = [k for k in ("config", "step", "opt_step", "clip", "rng_state")
               if k not in meta]
    if missing:
        raise CheckpointError(f"{path}: training checkpoint lacks {missing}")
    try:
        config = config_from_meta(meta["config"])
    except (TypeError, KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad training config: {exc!r}") from exc
    if not all(type(meta[k]) is int and meta[k] >= 0 for k in ("step", "opt_step")):
        raise CheckpointError(f"{path}: step and opt_step must be non-negative "
                              "ints")
    clip_meta = meta["clip"]
    number = lambda v: type(v) in (int, float)
    if not isinstance(clip_meta, dict) or not all(
            isinstance(c, dict) and number(c.get("m")) and number(c.get("alpha"))
            for c in clip_meta.values()):
        raise CheckpointError(f"{path}: clip must map groups to {{m, alpha}} "
                              "numbers")
    params = {k[len("params."):]: v for k, v in arrays.items()
              if k.startswith("params.")}
    bn = {k[len("bn."):]: v for k, v in arrays.items() if k.startswith("bn.")}
    opt = AdamWState(betas=config.betas, weight_decay=config.weight_decay,
                     step=meta["opt_step"])
    opt.m = {k[len("opt.m."):]: v for k, v in arrays.items()
             if k.startswith("opt.m.")}
    opt.v = {k[len("opt.v."):]: v for k, v in arrays.items()
             if k.startswith("opt.v.")}
    clip = {}
    for gname, cmeta in clip_meta.items():
        try:
            cs = ClipState(m=cmeta["m"], alpha=cmeta["alpha"])
        except ValueError as exc:
            raise CheckpointError(f"{path}: clip group {gname!r}: {exc}") from exc
        key = f"clip.{gname}"
        if key in arrays:
            cs.ema_grad = arrays[key]
        clip[gname] = cs
    rng = np.random.default_rng()
    try:
        rng.bit_generator.state = meta["rng_state"]
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: bad rng_state: {exc!r}") from exc
    metrics = [tuple(row) for row in arrays.get("metrics", np.empty((0, 5)))]
    state = TrainState(
        config=config, step=meta["step"], params=params, bn_stats=bn,
        opt=opt, clip=clip, rng=rng, metrics=metrics,
    )
    if meta.get("has_target"):
        state.target_params = {k[len("target."):]: v for k, v in arrays.items()
                               if k.startswith("target.")}
        state.target_bn = {k[len("target_bn."):]: v for k, v in arrays.items()
                           if k.startswith("target_bn.")}
    return state
