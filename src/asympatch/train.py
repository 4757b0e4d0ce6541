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

The views meet only in the loss, so each view's encoder pass, forward and
backward, and each chunk of the kNN probe's embeddings, runs as one task of
:func:`_parallel_map`. Tasks run on the calling process and on worker
processes forked at the first parallel call, one process per core the
process may use, divided by the BLAS threads per call; so they run in
parallel only where BLAS is limited (say ``OPENBLAS_NUM_THREADS=1``), and
never on one core. A view's backward runs in the process that ran its
forward, where its cache stays. Work that is not independent stays on the
calling process in view order: the heads, whose batch norms update running
statistics in place, and the sum of the views' gradients. Every value is
therefore byte-identical to the serial loop, whatever the process count.

The parameters do not cross by pickling. At every map the caller copies
them, and the target network's, into an anonymous shared buffer that the
workers were forked with (train-multiview's 3.6 MB: about 0.8 ms, where
pickling took 6.5 ms), and a worker writes each view's encoder gradients
into that view's slot of the same buffer. The caller sums them there, so
they are valid only until the next map. Only a task's function, pixels,
patch indices and the buffer's name/shape/offset layout go through a pipe.

Processes, not threads: threads hand the interpreter lock back and forth
at every numpy operation of an encoder pass, so a thread that loses its
core stalls the other. On a 2-vCPU VM, 10 benchmark runs of a thread pool
spread train-multiview's items/s over an interquartile range of 27, a
quarter of the serial median (100); 10 runs of the processes spread 7
(serial median 109).
"""

from __future__ import annotations

import inspect
import math
import os
import types
import warnings
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


# The variables each BLAS family reads its thread count from at load, first
# set positive one winning; with none set it takes every core.
_BLAS_THREAD_VARS = {
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                 "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
}


def _pool_size(blas: str, environ, cores: int) -> int:
    """Processes that run encoder tasks, the caller's included: as many BLAS
    thread teams as fit the cores, for the BLAS named ``blas`` (numpy's
    build configuration). Tasks that each start a whole team oversubscribe
    the cores: on a 2-core host a smoke step ran about 30% slower than
    serially. So a BLAS of unknown family leaves the tasks serial. A limit
    set at run time (say by threadpoolctl) is not seen here."""
    family = next((f for f in _BLAS_THREAD_VARS if f in blas.lower()), None)
    for var in _BLAS_THREAD_VARS.get(family, ()):
        value = environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return max(1, cores // int(value))
    return 1


_WORKERS = _pool_size(
    np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    .get("name", ""), os.environ,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1)
_procs = []        # (process, connection) per worker, made by the first parallel call
_buffer = None     # the anonymous shared memory the workers were forked with
_spread = []       # the connections the last map's tasks went out on
_kept = {}         # task index -> generator the last map left suspended here


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


def _view_pass(bb, params, pix, idx):
    """One view's encoder pass as a task: yields the representation, then,
    sent its gradient, the encoder's parameter gradients."""
    rep, cache = enc.encode_view(bb, params, pix, idx)
    drep = yield rep
    yield enc.encode_view_backward(bb, drep, cache)


def _view_rep(bb, params, pix, idx):
    """A view's representation alone, computed without backward caches."""
    return enc.encode_view(bb, params, pix, idx, cache=False)[0]


_ALIGN = 64        # bytes; each array in the shared buffer starts on a multiple


def _span(arrays: dict) -> int:
    """Bytes that :func:`_store` takes for ``arrays``."""
    return sum(-(-a.nbytes // _ALIGN) * _ALIGN for a in arrays.values())


class _InBuffer(list):
    """Where a dict of arrays lies in the workers' shared buffer: (name,
    shape, dtype, offset) of each array. It crosses between processes in
    place of the arrays."""

    def view(self, buffer) -> dict:
        return {name: np.ndarray(shape, dtype, buffer, offset)
                for name, shape, dtype, offset in self}


def _store(buffer, arrays: dict, start: int) -> _InBuffer:
    """Copy ``arrays`` into ``buffer`` from byte ``start`` on."""
    layout, offset = _InBuffer(), start
    for name, a in arrays.items():
        np.ndarray(a.shape, a.dtype, buffer, offset)[...] = a
        layout.append((name, a.shape, a.dtype.str, offset))
        offset += -(-a.nbytes // _ALIGN) * _ALIGN
    return layout


def _run_here(kind, kept, tasks) -> list:
    """Run ``tasks``, pairs (task index, payload), in this process; returns
    triples (task index, ok, result or exception). A ``"map"`` payload is a
    call ``(fn, args)``; when it returns a generator, the first yield is the
    result and the generator is kept under the task index. A ``"send"``
    payload goes to the generator kept under its index.

    Kept generators, and the caches they hold, are dropped only when the
    next map starts, so that its tasks reuse their memory: dropped after
    each send, glibc handed it back and the next step faulted it in again
    (a serial multiview step: about 10,000 page faults and 26 ms of system
    time, against 1,300 and 4 ms).
    """
    if kind == "map":
        kept.clear()
    out = []
    for i, payload in tasks:
        try:
            if kind == "send":
                value = kept[i].send(payload)
            else:
                fn, args = payload
                value = fn(*args)
                if isinstance(value, types.GeneratorType):
                    kept[i], value = value, next(value)
            out.append((i, True, value))
        except Exception as exc:  # noqa: BLE001 -- raised by the caller, in order
            out.append((i, False, exc))
    return out


def _worker(conn, inherited, buffer) -> None:
    """A worker process: run each batch of tasks the caller sends, under the
    caller's ``np.errstate``, and send back the outcomes and the warnings.
    A map's task is ``(fn, args, slot)``: each :class:`_InBuffer` in ``args``
    is read as views of ``buffer``, and a dict that the task's generator
    yields after a send is written to ``slot``, (start, size) in ``buffer``,
    and sent back as an :class:`_InBuffer`. It closes its copies of the
    caller's ends of the pipes, ``inherited``, so that it reads end-of-file,
    and ends, when the caller closes its own; an interrupt from the terminal
    is the caller's to handle.
    """
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    kept, slots = {}, {}
    while True:
        try:
            kind, err, tasks = conn.recv()
        except EOFError:
            return
        if kind == "map":
            slots = {i: slot for i, (_, _, slot) in tasks}
            tasks = [(i, (fn, tuple(a.view(buffer) if isinstance(a, _InBuffer)
                                    else a for a in args)))
                     for i, (fn, args, _) in tasks]
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(**err):
            warnings.simplefilter("always")
            out = _run_here(kind, kept, tasks)
        for n, (i, ok, value) in enumerate(out):
            if kind != "send" or not ok or not isinstance(value, dict):
                continue
            start, size = slots[i]
            if _span(value) > size:
                out[n] = (i, False, ValueError(
                    f"task {i}: a {_span(value)}-byte result exceeds its "
                    f"{size}-byte slot"))
            else:
                out[n] = (i, True, _store(buffer, value, start))
        caught = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        try:
            conn.send((out, caught))
        except Exception as exc:  # noqa: BLE001 -- an outcome that does not pickle
            conn.send(([(i, False, RuntimeError(f"task {i}: {exc!r}"))
                        for i, _, _ in out], caught))


def _start_workers(size: int) -> None:
    """Fork ``_WORKERS - 1`` workers that share a buffer of ``size`` bytes."""
    global _buffer
    # imported here: a process that never encodes (analyze, demo) need not
    # load multiprocessing or mmap
    import mmap
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return
    ctx = multiprocessing.get_context("fork")
    _buffer = mmap.mmap(-1, max(size, mmap.PAGESIZE))
    for _ in range(_WORKERS - 1):
        mine, theirs = ctx.Pipe()
        proc = ctx.Process(target=_worker, daemon=True,
                           args=(theirs, [mine] + [c for _, c in _procs],
                                 _buffer),
                           name="asympatch-encoder")
        proc.start()
        theirs.close()
        _procs.append((proc, mine))


def _stop_workers() -> None:
    """End the worker processes and let their buffer go, once no view of it
    is left; the next parallel call forks new ones."""
    global _buffer
    for proc, conn in _procs:
        conn.close()
        proc.join(timeout=5)
        if proc.is_alive():
            proc.terminate()
    _procs.clear()
    _spread.clear()
    _buffer = None


def _dispatch(kind, tasks) -> list:
    """Run ``tasks``, pairs (task index, payload): task i on the calling
    process if i % n == 0, else on connection i % n - 1 of ``_spread``, n
    being one more than their number. Every task ends before the first
    exception in task order is raised."""
    n = len(_spread) + 1
    err = np.geterr()
    try:
        for k, conn in enumerate(_spread, start=1):
            conn.send((kind, err, [t for t in tasks if t[0] % n == k]))
        outcomes = _run_here(kind, _kept, [t for t in tasks if t[0] % n == 0])
        for conn in _spread:
            out, caught = conn.recv()
            outcomes += [(i, ok, value.view(_buffer)
                          if isinstance(value, _InBuffer) else value)
                         for i, ok, value in out]
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
    except BaseException as exc:
        # a worker's reply may still be in flight: start afresh next time
        _stop_workers()
        if isinstance(exc, (EOFError, ConnectionError)):
            raise RuntimeError("an encoder worker process ended") from exc
        raise
    outcomes.sort(key=lambda o: o[0])
    for _, ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, _, value in outcomes]


def _parallel_map(calls) -> list:
    """``[fn(*args) for fn, args in calls]``, run by the calling process and
    up to ``_WORKERS - 1`` worker processes together, task i on process
    i % n. A call that returns a generator gives its first yield, and the
    generator stays suspended in the process that ran it until
    :func:`_parallel_send`, so what it holds (a view's backward cache) never
    crosses. Tasks run under the caller's ``np.errstate``, and a worker's
    warnings are issued again in the caller. While the encoder's functions
    are wrapped, as ``bench/tracer.py`` wraps them to time spans, tasks run
    in order in the caller.

    The dicts among a worker task's arguments (the parameters) do not cross
    by pickling: the caller copies each into a buffer it shares with the
    workers, forked with it, and the worker reads views of the copy, made
    anew at every map. The buffer is sized from the first map; a map that
    needs more room restarts the workers with a larger one. Everything else,
    ``fn`` by its importable name, the other arguments and the results,
    crosses by pickling.
    """
    _spread.clear()
    n = _WORKERS
    if n < 2 or len(calls) < 2 or hasattr(enc.encode_view, "__wrapped__"):
        return _dispatch("map", list(enumerate(calls)))
    # the buffer holds each dict a worker's task reads, and a slot for each
    # worker's generator task, as large as its dicts, for what it yields
    # after a send (a view's gradients)
    remote = [(i, fn, args) for i, (fn, args) in enumerate(calls) if i % n]
    dicts, slots, end = {}, {}, 0
    for i, fn, args in remote:
        mine = [a for a in args if isinstance(a, dict)]
        for a in mine:
            if id(a) not in dicts:
                dicts[id(a)] = (a, end)
                end += _span(a)
        if inspect.isgeneratorfunction(fn):
            slots[i] = (end, sum(map(_span, mine)))
            end += slots[i][1]
    if _procs and len(_buffer) < end:
        _stop_workers()
    if not _procs:
        _start_workers(end)
    if not _procs:                       # no fork on this platform
        return _dispatch("map", list(enumerate(calls)))
    placed = {key: _store(_buffer, a, start) for key, (a, start) in dicts.items()}
    tasks = [(i, call) for i, call in enumerate(calls) if i % n == 0]
    tasks += [(i, (fn, tuple(placed[id(a)] if isinstance(a, dict) else a
                             for a in args), slots.get(i)))
              for i, fn, args in remote]
    _spread[:] = [conn for _, conn in _procs]
    return _dispatch("map", tasks)


def _parallel_send(values) -> list:
    """Send ``values[i]`` to the generator that task i of the last
    :func:`_parallel_map` left suspended, in its process; returns what each
    yields next. A dict that a worker's generator yields comes back as views
    of the shared buffer, valid only until the next map overwrites it."""
    return _dispatch("send", list(enumerate(values)))


def train_step(state: TrainState, batch_records, dump_path=None) -> float:
    """One full optimization step on a batch of image records; the encoder
    passes of its views run as parallel tasks (see the module docstring)."""
    cfg = state.config
    bb = cfg.backbone_config()
    hc = cfg.head_config()
    pix1, pix2, views1, views2, _ = _draw_views(state, batch_records)
    views = [(pix1, idx) for idx in views1] + [(pix2, idx) for idx in views2]
    calls = [(_view_pass, (bb, state.params, pix, idx)) for pix, idx in views]
    if cfg.momentum_encoder:     # the target network needs no backward
        calls += [(_view_rep, (bb, state.target_params, pix, idx))
                  for pix, idx in views]
    reps = _parallel_map(calls)

    pairs, head_caches = [], []      # (q, z_for_targets), heads' caches
    for rep in reps[:len(views)]:
        z, q, head_c = enc.heads_forward(hc, state.params, state.bn_stats,
                                         rep, train=True)
        pairs.append((q, z))
        head_caches.append(head_c)
    for i, rep in enumerate(reps[len(views):]):
        z_t, _ = enc.project(hc, state.target_params, state.target_bn,
                             rep, train=True)
        pairs[i] = (pairs[i][0], z_t)

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
    enc_grads = _parallel_send([drep for drep, _ in heads])
    grads = {}
    for (_, view_grads), encoder_grads in zip(heads, enc_grads):
        view_grads.update(encoder_grads)
        enc.accumulate_grads(grads, view_grads)
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
                  batch: int = 16) -> np.ndarray:
    """Full-image (all patches kept) class-token representations.

    Records are encoded in chunks of ``batch``, one chunk per task of
    :func:`_parallel_map`. No encoder operation mixes records, so the result
    does not depend on ``batch``. A chunk's backward caches live only while
    it is encoded, so each process's peak memory grows with ``batch``: a
    smoke-config probe process peaks at 103 MB for 16-record chunks against
    230 MB for 64-record chunks.
    """
    bb = config.backbone_config()
    all_idx = np.arange(bb.n_patches)
    chunks = [records[i:i + batch] for i in range(0, len(records), batch)]
    return np.concatenate(_parallel_map([
        (_view_rep, (bb, params, np.stack([r.pixels for r in chunk]),
                     np.broadcast_to(all_idx, (len(chunk), bb.n_patches))))
        for chunk in chunks]), axis=0)


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
    ``config`` at ``step``: the parameters and batch-norm statistics; from
    the first step on, the AdamW moments and, with clipping on, each clip
    group's EMA; with the momentum encoder on, the target network's; and
    the metrics."""
    params, bn = enc.param_shapes(config.backbone_config(), config.head_config())
    want = {f"params.{k}": s for k, s in params.items()}
    want.update({f"bn.{k}": s for k, s in bn.items()})
    if step:
        want.update({f"opt.{m}.{k}": s for m in "mv" for k, s in params.items()})
    if step and config.clip_enabled:
        sizes: dict[str, int] = {}
        for k, s in params.items():
            sizes[clip_group_of(k)] = sizes.get(clip_group_of(k), 0) + math.prod(s)
        want.update({f"clip.{g}": (n,) for g, n in sizes.items()})
    if config.momentum_encoder:
        want.update({f"target.{k}": s for k, s in params.items()})
        want.update({f"target_bn.{k}": s for k, s in bn.items()})
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
    step makes exactly one optimizer step; meta keys beyond ``kind``,
    ``config``, ``step`` and ``rng_state``, as older checkpoints carry, are
    ignored. Arrays that do not match the config and step, by name, shape
    or dtype, raise :class:`CheckpointError`."""
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

    _check_arrays(path, arrays, config, step)

    def group(prefix):
        return {k[len(prefix):]: v for k, v in arrays.items()
                if k.startswith(prefix)}

    opt = AdamWState(betas=config.betas, weight_decay=config.weight_decay,
                     step=step, m=group("opt.m."), v=group("opt.v."))
    clip = {gname: ClipState(m=config.clip_m, alpha=config.clip_alpha,
                             ema_grad=ema)
            for gname, ema in group("clip.").items()}
    rng = np.random.default_rng()
    try:
        rng.bit_generator.state = meta["rng_state"]
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: bad rng_state: {exc!r}") from exc
    metrics = [tuple(row) for row in arrays.get("metrics", np.empty((0, 5)))]
    state = TrainState(
        config=config, step=step, params=group("params."),
        bn_stats=group("bn."), opt=opt, clip=clip, rng=rng, metrics=metrics,
    )
    if config.momentum_encoder:
        state.target_params = group("target.")
        state.target_bn = group("target_bn.")
    return state
