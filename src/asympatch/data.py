"""Dataset ingestion and the two-view augmentation pipeline.

Two sources are supported: the classic 3073-byte-record binary image format
(1 label byte + 32x32x3 pixels stored as full R, G, B planes, row-major) and
a deterministic synthetic generator of class-distinguishable grating images,
which is the default at desk scale — nothing is ever downloaded.

The augmentation is random-resized-crop with bilinear resampling, a
horizontal flip, colour jitter and grayscale. ``augment_batch`` makes many
views at once and returns each view's crop box and flip next to its pixels:
patch-overlap geometry depends only on those, never on colour ops. It works
in two parts: :func:`draw_views` draws every random quantity as an array
over all views, crops from the one crop law of
:func:`asympatch.sampling.random_crops`, and :func:`render_views` does the
pixel work in array ops, view by view, so any subset of the views renders
to the same bytes as the whole. Crop coordinates are continuous
(sub-pixel); the identity configuration (full-image crop at native size,
all probabilities zero) reproduces the source pixels exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import CROP_AREA_RANGE, CROP_ASPECT_RANGE, random_crops

CIFAR_RECORD_BYTES = 3073
CIFAR_SIDE = 32


@dataclass
class ImageRecord:
    """One image: (H, W, 3) float pixels in [0, 1], label, and a source id."""

    pixels: np.ndarray
    label: int
    source_id: str


@dataclass(frozen=True)
class AugmentParams:
    """Augmentation knobs for one view family.

    The CIFAR-style preset: the crop law of :mod:`asympatch.sampling`
    (area fraction in [0.15, 1.0], aspect ratio in [3/4, 4/3]), flip 0.5,
    color jitter 0.8 with max intensities 0.4/0.4/0.4/0.1
    (brightness/contrast/saturation/hue), grayscale 0.2.
    """

    view_size: int
    area_range: tuple[float, float] = CROP_AREA_RANGE
    aspect_range: tuple[float, float] = CROP_ASPECT_RANGE
    flip_prob: float = 0.5
    jitter_prob: float = 0.8
    brightness: float = 0.4
    contrast: float = 0.4
    saturation: float = 0.4
    hue: float = 0.1
    grayscale_prob: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.area_range[0] <= self.area_range[1] <= 1.0:
            raise ValueError("area range must satisfy 0 < lo <= hi <= 1")
        if not 0.0 < self.aspect_range[0] <= self.aspect_range[1]:
            raise ValueError("invalid aspect ratio range")
        for name in ("flip_prob", "jitter_prob", "grayscale_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v}")


def cifar_augment_params(view_size: int = CIFAR_SIDE) -> AugmentParams:
    """Table of CIFAR augmentation parameters; views 1 and 2 share it."""
    return AugmentParams(view_size=view_size)


def identity_augment_params(view_size: int) -> AugmentParams:
    """Deterministic pass-through view: full-image crop, no color ops."""
    return AugmentParams(
        view_size=view_size,
        area_range=(1.0, 1.0),
        aspect_range=(1.0, 1.0),
        flip_prob=0.0,
        jitter_prob=0.0,
        grayscale_prob=0.0,
    )


# ---------------------------------------------------------------------------
# ingestion

def load_cifar(path) -> list[ImageRecord]:
    """Parse a binary file of 3073-byte records into image records.

    Byte layout per record: 1 label byte, then 1024 red bytes, 1024 green,
    1024 blue, each plane row-major. Pixels are scaled to [0, 1].
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES:
        raise ValueError(
            f"{path}: size {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}"
        )
    data = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = data[:, 0]
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise ValueError(
            f"{path}: record {bad[0]} has label {labels[bad[0]]} > 9"
        )
    planes = data[:, 1:].reshape(-1, 3, CIFAR_SIDE, CIFAR_SIDE)
    pixels = planes.transpose(0, 2, 3, 1).astype(float) / 255.0
    return [
        ImageRecord(pixels=pixels[i], label=int(labels[i]), source_id=f"cifar:{i}")
        for i in range(pixels.shape[0])
    ]


def synth_dataset(n_per_class: int, n_classes: int, image_size: int,
                  seed: int) -> list[ImageRecord]:
    """Deterministic grating images with class-dependent orientation,
    frequency, and color, separable by a pixel-mean classifier."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    if image_size < 1:
        raise ValueError("image_size must be >= 1")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:image_size, 0:image_size] / image_size
    records = []
    for c in range(n_classes):
        theta = np.pi * c / n_classes
        freq = 2.0 + 1.5 * c
        hue = 2.0 * np.pi * c / max(n_classes, 2)
        color = 0.35 + 0.3 * (1.0 + np.array([
            np.cos(hue),
            np.cos(hue - 2.0 * np.pi / 3.0),
            np.cos(hue - 4.0 * np.pi / 3.0),
        ]))
        for i in range(n_per_class):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave = np.sin(2.0 * np.pi * freq *
                          (xx * np.cos(theta) + yy * np.sin(theta)) + phase)
            base = 0.5 + 0.45 * wave
            pix = base[:, :, None] * color[None, None, :]
            pix = pix + rng.normal(0.0, 0.02, size=pix.shape)
            records.append(ImageRecord(
                pixels=np.clip(pix, 0.0, 1.0),
                label=c,
                source_id=f"synth:{seed}:{c}:{i}",
            ))
    return records


def synth_manifest(n_per_class: int, n_classes: int, image_size: int,
                   seed: int) -> str:
    """Plain-text header describing a generated fixture set."""
    return (
        f"seed={seed}\nclasses={n_classes}\nn_per_class={n_per_class}\n"
        f"image_size={image_size}\n"
    )


# ---------------------------------------------------------------------------
# augmentation

@dataclass(frozen=True)
class ViewDraws:
    """Every random quantity of N augmented views, one entry per view along
    each array's last axis: the (4, N) crop boxes x0, y0, w, h in source
    pixels, the (N,) horizontal flips, and for each colour op that can fire,
    in application order, ``(op, gates, factors)``: (N,) booleans and (N,)
    factors, None for an op without one."""

    params: AugmentParams
    box: np.ndarray
    flip: np.ndarray
    ops: tuple

    def take(self, rows) -> ViewDraws:
        """The draws of the views ``rows``, a slice or an index array."""
        return ViewDraws(self.params, self.box[:, rows], self.flip[rows],
                         tuple((op, gate[rows], None if f is None else f[rows])
                               for op, gate, f in self.ops))


def draw_views(n: int, height: int, width: int, params: AugmentParams,
               rng: np.random.Generator) -> ViewDraws:
    """The draws of ``n`` views of ``height`` x ``width`` sources, each an
    array over all views, in this order: the crops
    (:func:`~asympatch.sampling.random_crops`), n flip uniforms, then for
    each colour op in application order whose probability (and jitter
    amount) is positive, n gate uniforms and, for ops with a factor, n
    factor uniforms."""
    box = random_crops(rng, n, width, height, params.area_range,
                       params.aspect_range)
    flip = rng.random(n) < params.flip_prob
    ops = []
    for op in _COLOR_OPS:
        prob, span = _op_law(params, op)
        if prob > 0.0:
            gates = rng.random(n) < prob
            ops.append((op, gates,
                        None if span is None else rng.uniform(*span, n)))
    return ViewDraws(params, box, flip, tuple(ops))


def render_views(src: np.ndarray, draws: ViewDraws) -> np.ndarray:
    """The (N, S, S, 3) pixels of the N views ``draws`` of the sources
    ``src`` (N, H, W, 3), view i of source i: one bilinear gather, then each
    colour op on the views whose gate fired. No operation mixes views, so a
    view's pixels do not depend on which others are rendered with it."""
    x = _resize_bilinear_batch(src, draws.box, draws.flip,
                               draws.params.view_size)
    for op, gates, factors in draws.ops:
        fired = np.flatnonzero(gates)
        if fired.size:
            x[fired] = _color_op(
                op, x[fired],
                None if factors is None else factors[fired, None, None, None])
    return x


def augment_batch(sources, params: AugmentParams,
                  rng: np.random.Generator):
    """One augmented view of each source record.

    Returns ``(views, box, flip)``: ``(N, S, S, 3)`` pixels, the (4, N) crop
    boxes x0, y0, w, h in source pixels, and the (N,) horizontal flips: the
    :func:`draw_views` of the N views, rendered by :func:`render_views`.
    All sources must share one image shape.
    """
    src = np.stack([np.asarray(r.pixels, dtype=float) for r in sources])
    draws = draw_views(len(src), *src.shape[1:3], params, rng)
    return render_views(src, draws), draws.box, draws.flip


def _resize_bilinear_batch(src: np.ndarray, box: np.ndarray, flip: np.ndarray,
                           view_size: int) -> np.ndarray:
    """Sample each crop box (x0, y0, w, h) of ``src`` (N, H, W, 3) onto a
    view_size grid with bilinear weights.

    View pixel (u, v) shows source coordinate
    ``x = x0 + (u + 0.5) * w / view_size`` (mirrored when flipped), which
    makes the identity configuration land exactly on pixel centers and
    reproduce the source bit-for-bit.
    """
    n, h_img, w_img = src.shape[:3]
    rx0, ry0, w, h = (v[:, None] for v in box)
    sx = w / view_size
    sy = h / view_size
    u = np.arange(view_size) + 0.5
    xs = np.where(flip[:, None], rx0 + (view_size - u) * sx, rx0 + u * sx)
    ys = ry0 + u * sy
    # continuous coords -> pixel-index space, clamped at the borders
    xi = np.clip(xs - 0.5, 0.0, w_img - 1.0)
    yi = np.clip(ys - 0.5, 0.0, h_img - 1.0)
    x0 = np.floor(xi).astype(int)
    y0 = np.floor(yi).astype(int)
    x1 = np.minimum(x0 + 1, w_img - 1)
    y1 = np.minimum(y0 + 1, h_img - 1)
    # blend on (v, u * channel) rows: the x weights repeat per channel
    fx = np.repeat(xi - x0, 3, axis=1)[:, None, :]
    fy = (yi - y0)[:, :, None]
    # one gather of all four corners: (N, y0|y1, v, x0|x1, u * channel)
    rows = np.stack([y0, y1], axis=1) * w_img \
        + (np.arange(n) * (h_img * w_img))[:, None, None]
    cols = np.stack([x0, x1], axis=1)
    flat = rows[:, :, :, None, None] + cols[:, None, None, :, :]
    corner = np.take(src.reshape(-1, 3), flat, axis=0)
    corner = corner.reshape(n, 2, view_size, 2, view_size * 3)
    top = corner[:, 0, :, 0] * (1.0 - fx)
    top += corner[:, 0, :, 1] * fx
    bot = corner[:, 1, :, 0] * (1.0 - fx)
    bot += corner[:, 1, :, 1] * fx
    top *= 1.0 - fy
    bot *= fy
    top += bot
    return top.reshape(n, view_size, view_size, 3)


def _luma(x: np.ndarray) -> np.ndarray:
    return 0.299 * x[..., 0] + 0.587 * x[..., 1] + 0.114 * x[..., 2]


# photometric ops in application order; the four jitter ops share one gate
# probability and draw a factor around 1 (a hue shift around 0)
_JITTER_OPS = ("brightness", "contrast", "saturation", "hue")
_COLOR_OPS = _JITTER_OPS + ("grayscale",)


def _op_law(params: AugmentParams, op: str):
    """Gate probability and factor range (None: no factor) of a colour op."""
    if op in _JITTER_OPS:
        amount = getattr(params, op)
        centre = 0.0 if op == "hue" else 1.0
        prob = params.jitter_prob if amount > 0.0 else 0.0
        return prob, (centre - amount, centre + amount)
    return params.grayscale_prob, None


def _color_op(op: str, x: np.ndarray, a) -> np.ndarray:
    """Apply one op to views ``x`` (M, S, S, 3) with factors ``a``."""
    if op == "brightness":
        return np.clip(x * a, 0.0, 1.0)
    if op == "contrast":
        # sum each view's luma column by column: the order a one-view
        # bilinear resize's column-major result is summed in, so a batched
        # view and the same view rendered alone stay bit-identical
        mean = _luma(x).transpose(0, 2, 1).reshape(len(x), -1).mean(axis=1)
        mean = mean[:, None, None, None]
        return np.clip((x - mean) * a + mean, 0.0, 1.0)
    if op == "saturation":
        l = _luma(x)[..., None]
        return np.clip((x - l) * a + l, 0.0, 1.0)
    if op == "hue":
        return _shift_hue(x, a[..., 0])
    return np.repeat(_luma(x)[..., None], 3, axis=-1)   # grayscale


def _shift_hue(x: np.ndarray, shift: float) -> np.ndarray:
    h, s, v = _rgb_to_hsv(x)
    return _hsv_to_rgb((h + shift) % 1.0, s, v)


def _rgb_to_hsv(x):
    r, g, b = x[..., 0], x[..., 1], x[..., 2]
    # elementwise over the channel planes: a reduction over the length-3
    # channel axis is several times slower
    maxc = np.maximum(np.maximum(r, g), b)
    minc = np.minimum(np.minimum(r, g), b)
    v = maxc
    span = maxc - minc
    s = np.where(maxc > 0.0, span / np.where(maxc > 0.0, maxc, 1.0), 0.0)
    safe = np.where(span > 0.0, span, 1.0)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    h = np.where(maxc == r, bc - gc,
                 np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc))
    h = np.where(span > 0.0, (h / 6.0) % 1.0, 0.0)
    return h, s, v


def _hsv_to_rgb(h, s, v):
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(int) % 6
    r = np.choose(i, (v, q, p, p, t, v))
    g = np.choose(i, (t, v, v, q, p, p))
    b = np.choose(i, (p, p, t, v, v, q))
    return np.stack([r, g, b], axis=-1)
