"""Command-line surface: asymmetry analysis, sampling demos, training, and
representation probing. Outputs are files (CSV, plain text, P6 pixmaps,
checkpoints); there is no interactive mode.

Config files are flat ``key = value`` text with one ``[section]`` per
subcommand; unknown sections or keys are rejected outright so a typo cannot
silently fall back to a default. Each subcommand accepts only the flags it
reads: ``analyze``, ``demo`` and ``train`` take ``--seed`` (output files are
byte-identical across runs for a fixed seed), ``train`` alone takes
``--dry-run``, and ``probe``, which reads its seed from the checkpoint, takes
``--checkpoint``. Every subcommand exits 0 on success, nonzero with a single
machine-parseable ``error: ...`` line on failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import asymmetry
from .data import (ImageRecord, augment_batch, cifar_augment_params,
                   synth_dataset)
from .sampling import SamplerConfig, sample_views
from .serialize import write_atomic
from .train import (TrainConfig, checkpoint_load, knn_probe, load_dataset,
                    probe_split, run_training, smoke_config)


def _on_off(raw: str) -> bool:
    """A switch: exactly ``on`` or ``off``; anything else is a typo."""
    if raw not in ("on", "off"):
        raise ValueError(f"expected on or off, got {raw!r}")
    return raw == "on"


ANALYZE_SCHEMA = {
    "s1": float, "s2": float, "gammas": str, "trials": int, "grid": int,
    "crop_model": str, "density_points": int,
}
DEMO_SCHEMA = {
    "image": str, "image_size": int, "patch": int, "s1": float, "s2": float,
    "gamma": float, "area_lo": float, "area_hi": float, "scale": int,
}
# each [train] key: its converter and the TrainConfig field it sets; a
# "dataset." or "sampler." path names a field of that nested spec
TRAIN_KEYS = {
    "backbone": (str, "backbone"), "heads": (str, "heads"),
    "dataset": (str, "dataset.kind"), "classes": (int, "dataset.n_classes"),
    "per_class": (int, "dataset.n_per_class"),
    "image_size": (int, "dataset.image_size"),
    "dataset_seed": (int, "dataset.seed"), "cifar_path": (str, "dataset.path"),
    "s1": (float, "sampler.s1"), "s2": (float, "sampler.s2"),
    "gamma": (float, "sampler.gamma"), "views": (int, "sampler.n_views"),
    "tau": (float, "tau"), "lr": (float, "base_lr"),
    "weight_decay": (float, "weight_decay"), "batch": (int, "batch_size"),
    "warmup_steps": (int, "warmup_steps"), "total_steps": (int, "total_steps"),
    "clip": (_on_off, "clip_enabled"), "clip_m": (float, "clip_m"),
    "clip_alpha": (float, "clip_alpha"),
    "momentum_encoder": (_on_off, "momentum_encoder"), "seed": (int, "seed"),
    "checkpoint_every": (int, "checkpoint_every"), "knn_k": (int, "knn_k"),
}
TRAIN_SCHEMA = {key: conv for key, (conv, _) in TRAIN_KEYS.items()}
PROBE_SCHEMA = {"checkpoint": str, "k": int}

SCHEMAS = {
    "analyze": ANALYZE_SCHEMA,
    "demo": DEMO_SCHEMA,
    "train": TRAIN_SCHEMA,
    "probe": PROBE_SCHEMA,
}


class UsageError(ValueError):
    pass


def load_config(path, section: str) -> dict:
    """Parse one section of a flat key-value config file, fail-closed."""
    # the files are flat literal key = value text: a "%" is a character,
    # not the start of an interpolation
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            # configparser messages span lines; the CLI prints exactly one
            raise UsageError(f"bad config file: {' '.join(str(exc).split())}") \
                from exc
    schema = SCHEMAS[section]
    for sec in parser.sections():
        if sec not in SCHEMAS:
            raise UsageError(f"unknown config section [{sec}]")
    out = {}
    if parser.has_section(section):
        for key, raw in parser.items(section):
            if key not in schema:
                raise UsageError(f"unknown key {key!r} in section [{section}]")
            conv = schema[key]
            try:
                out[key] = conv(raw)
            except ValueError as exc:
                raise UsageError(f"bad value for {key!r}: {raw!r}") from exc
    return out


# ---------------------------------------------------------------------------
# P6 pixmaps

def write_ppm(path, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.dtype != np.uint8:
        img = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    if img.ndim == 2:
        img = np.repeat(img[:, :, None], 3, axis=2)
    h, w = img.shape[:2]
    write_atomic(path, f"P6\n{w} {h}\n255\n".encode() + img.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise UsageError(f"{path}: not a P6 pixmap")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if not data[start:pos].isdigit():
            name = ("width", "height", "maxval")[len(fields)]
            raise UsageError(f"{path}: pixmap header has no decimal {name}")
        fields.append(int(data[start:pos]))
    pos += 1   # single whitespace after maxval
    w, h, maxval = fields
    if not 1 <= maxval <= 255:
        raise UsageError(f"{path}: maxval {maxval} is not in 1-255 (only "
                         f"8-bit pixmaps are read)")
    raw = np.frombuffer(data[pos:pos + w * h * 3], dtype=np.uint8)
    if raw.size != w * h * 3:
        raise UsageError(f"{path}: truncated pixel data")
    return raw.reshape(h, w, 3).astype(float) / maxval


def _upscale(img: np.ndarray, factor: int) -> np.ndarray:
    return np.kron(img, np.ones((factor, factor, 1))) if img.ndim == 3 \
        else np.kron(img, np.ones((factor, factor)))


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> int:
    cfg = load_config(args.config, "analyze") if args.config else {}
    s1 = cfg.get("s1", 0.25)
    s2 = cfg.get("s2", 0.25)
    gammas = [float(g) for g in str(cfg.get("gammas", "0,1,2,3,4")).split(",")]
    trials = cfg.get("trials", 20_000)
    grid = cfg.get("grid", 32)
    crop_model = cfg.get("crop_model", "random")
    points = cfg.get("density_points", 101)
    if trials <= 0:
        raise UsageError("trials must be positive")
    if points < 2:
        raise UsageError("density_points must be at least 2")
    seed = args.seed if args.seed is not None else 0

    start = time.perf_counter()
    reports = [asymmetry.monte_carlo_overlap(
        "naive", s1, s2, 0.0, "identical", grid, trials, seed=seed)]
    for i, gamma in enumerate(gammas):
        reports.append(asymmetry.monte_carlo_overlap(
            "selective", s1, s2, gamma, crop_model, grid, trials,
            seed=seed + 1 + i))
    elapsed = time.perf_counter() - start
    n_trials = trials * len(reports)

    table = asymmetry.reports_to_table(reports)
    rs = np.linspace(0.0, 1.0, points)
    curves = "gamma,s1,r,p_sel\n" + "".join(
        f"{gamma!r},{s1!r},{r!r},{p!r}\n" for gamma in gammas
        for r, p in zip(rs, asymmetry.selective_density(rs, gamma, s1)))
    os.makedirs(args.out, exist_ok=True)
    for name, text in (("analyze_report.csv", asymmetry.reports_to_csv(reports)),
                       ("analyze_report.txt", table),
                       ("density_curves.csv", curves)):
        write_atomic(os.path.join(args.out, name), text.encode())
    print(table, end="")
    # wall-clock, so stdout only: the report files stay byte-deterministic
    print(f"{n_trials} trials in {elapsed:.2f} s "
          f"({elapsed / n_trials * 1e6:.1f} µs/trial)")
    return 0


def _demo_image(cfg) -> ImageRecord:
    source = cfg.get("image", "synthetic")
    if source == "synthetic":
        size = cfg.get("image_size", 32)
        return synth_dataset(1, 1, size, seed=1)[0]
    try:
        pixels = read_ppm(source)
    except OSError as exc:
        raise UsageError(f"cannot read input image {source!r}: {exc}") from exc
    if pixels.shape[0] != pixels.shape[1]:
        raise UsageError("demo input image must be square")
    return ImageRecord(pixels=pixels, label=0, source_id=source)


def cmd_demo(args) -> int:
    cfg = load_config(args.config, "demo") if args.config else {}
    record = _demo_image(cfg)
    image_size = record.pixels.shape[0]
    patch = cfg.get("patch", 2)
    s1 = cfg.get("s1", 0.25)
    s2 = cfg.get("s2", 0.25)
    gamma = cfg.get("gamma", 3.0)
    scale = cfg.get("scale", 8)
    if scale < 1:
        raise UsageError(f"scale must be >= 1, got {scale}")
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)

    params = cifar_augment_params(view_size=image_size)
    params = replace(
        params,
        area_range=(cfg.get("area_lo", params.area_range[0]),
                    cfg.get("area_hi", params.area_range[1])),
        jitter_prob=0.0, grayscale_prob=0.0,   # keep the geometry legible
    )
    if patch < 1 or image_size % patch:
        raise UsageError(f"patch {patch} does not tile the "
                         f"{image_size}-pixel image")
    n = image_size // patch
    sampler = SamplerConfig(s1=s1, s2=s2, gamma=gamma, n_views=2)
    (view1, view2), box, flip = augment_batch([record, record], params, rng)
    (set1,), (set2,), profiles = sample_views(
        rng, box[:, :1], box[:, 1:], n, sampler, flip[:1], flip[1:])
    profile = profiles[0]

    os.makedirs(args.out, exist_ok=True)
    write_ppm(os.path.join(args.out, "crop1.ppm"), view1)
    write_ppm(os.path.join(args.out, "crop2.ppm"), view2)
    mask1, mask2 = (np.isin(np.arange(n * n), v[0]).reshape(n, n).astype(float)
                    for v in (set1, set2))
    heat = profile.reshape(n, n)
    write_ppm(os.path.join(args.out, "view1_mask.ppm"), _upscale(mask1, scale))
    write_ppm(os.path.join(args.out, "overlap_heat.ppm"), _upscale(heat, scale))
    write_ppm(os.path.join(args.out, "view2_mask.ppm"), _upscale(mask2, scale))

    sel = set2[0]
    unsel = np.setdiff1d(np.arange(n * n), sel)
    print(f"selected mean overlap   {profile[sel].mean():.4f}")
    print(f"unselected mean overlap {profile[unsel].mean():.4f}" if unsel.size
          else "unselected mean overlap n/a")
    return 0


def _train_config(cfg: dict, seed_override) -> TrainConfig:
    """``smoke_config()`` with each given ``[train]`` key set on its field;
    every spec is rebuilt, so each key passes its spec's validation."""
    fields = {"dataset": {}, "sampler": {}, "": {}}
    for key, value in cfg.items():
        spec, _, name = TRAIN_KEYS[key][1].rpartition(".")
        fields[spec][name] = value
    if seed_override is not None:
        fields[""]["seed"] = seed_override
    base = smoke_config()
    top = fields.pop("")
    for spec, given in fields.items():
        top[spec] = replace(getattr(base, spec), **given)
    return replace(base, **top)


def _probe_report(state, out: str, k: int) -> float:
    """The kNN accuracy of ``state``'s network on its config's probe split,
    written with the step count to ``probe_report.txt`` under ``out``."""
    config = state.config
    ref, held = probe_split(load_dataset(config.dataset), config)
    acc = knn_probe(config, state.params, ref, held, k=k)
    os.makedirs(out, exist_ok=True)
    write_atomic(os.path.join(out, "probe_report.txt"),
                 f"steps={state.step}\nknn_accuracy={acc!r}\n".encode())
    return acc


def cmd_train(args) -> int:
    cfg = load_config(args.config, "train") if args.config else {}
    config = _train_config(cfg, args.seed)
    if args.dry_run:
        load_dataset(config.dataset)    # fails as the real run would
        print("dry run: no training performed")
        print(f"backbone={config.backbone} heads={config.heads}")
        print(f"dataset={config.dataset.kind} batch={config.batch_size}")
        print(f"sampler: s1={config.sampler.s1} s2={config.sampler.s2} "
              f"gamma={config.sampler.gamma} views={config.sampler.n_views}")
        print(f"steps: total={config.total_steps} warmup={config.warmup_steps}")
        print(f"lr={config.base_lr} tau={config.tau} "
              f"weight_decay={config.weight_decay} seed={config.seed}")
        return 0
    # a diverging run is reported by the explicit finite checks (activations,
    # loss, gradients) as one error line; numpy's warnings would precede it
    with np.errstate(all="ignore"):
        state = run_training(config, out_dir=args.out)
    acc = _probe_report(state, args.out, config.knn_k)
    print(f"trained {state.step} steps; knn accuracy {acc:.4f}")
    return 0


def cmd_probe(args) -> int:
    cfg = load_config(args.config, "probe") if args.config else {}
    path = args.checkpoint or cfg.get("checkpoint")
    if not path:
        raise UsageError("probe needs --checkpoint or a config entry")
    state = checkpoint_load(path)
    acc = _probe_report(state, args.out, cfg.get("k", state.config.knn_k))
    print(f"knn accuracy {acc:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asympatch",
        description="asymmetric patch sampling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("analyze", cmd_analyze), ("demo", cmd_demo),
                     ("train", cmd_train), ("probe", cmd_probe)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default="out", help="output directory")
        if name == "probe":
            p.add_argument("--checkpoint", default=None)
        else:
            p.add_argument("--seed", type=int, default=None,
                           help="seed override")
        if name == "train":
            p.add_argument("--dry-run", action="store_true")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError, OSError, RuntimeError,
            FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
