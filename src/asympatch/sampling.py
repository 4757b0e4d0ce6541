"""Dual patch sampling as batched array kernels: uniform sparse draws for
view 1, selective, overlap-penalized draws for view 2, and disjoint
multi-view reuse, for a whole batch of crop pairs at once.

The kernels take ``(B, ...)`` arrays, one row per sample, and serve the
trainer, the Monte Carlo analyzer (:mod:`asympatch.asymmetry`) and the demo
alike; :func:`sample_views` chains them for every view of a training batch.
A single sample is a batch of one row. :mod:`asympatch.geometry` computes
the same overlaps one rectangle at a time and is the kernels' reference.

View 1 keeps a uniform sample of ``round(s1 * N)`` patches. View 2 is drawn
without replacement with per-patch weight ``(1 - r)**gamma``, where ``r`` is
the patch's overlap ratio against the union of view-1's sampled footprints;
fully overlapped patches (r = 1) get weight zero and are never drawn while
positive-weight patches remain. The constant ``(gamma + 1) * s1`` prefactor
of the selective density cancels in normalized draws, so it lives in the
analyzer, not here.

Weighted sampling without replacement is realized with exponential race
keys: drawing the ``k`` smallest of ``E_i / w_i`` (``E_i`` iid standard
exponential) is distributed exactly like ``k`` sequential draws with
renormalized weights, but vectorizes. The equivalence is covered by an
enumeration test against the sequential scheme.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling ratios, selectivity power, and view count."""

    s1: float = 0.25
    s2: float = 0.25
    gamma: float = 3.0
    n_views: int = 2

    def __post_init__(self):
        _check_ratio("s1", self.s1)
        _check_ratio("s2", self.s2)
        _check_gamma(self.gamma)
        if self.n_views < 1:
            raise ValueError(f"n_views must be >= 1, got {self.n_views}")
        if self.n_views > 2 and (self.n_views + 1) // 2 * max(self.s1, self.s2) > 1.0 + 1e-12:
            raise ValueError("disjoint multi-view reuse needs n_views/2 * s <= 1")


def _check_ratio(name: str, value: float) -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


def _check_gamma(gamma: float) -> None:
    # NaN passes "gamma < 0": it weighs the zero-overlap patches 1**nan = 1
    # and every other patch NaN, which the race skips, so it acts as inf
    if not (np.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")


def sample_count(ratio: float, n: int) -> int:
    """Number of patches kept at a given ratio: round-half-up of ratio * n."""
    return int(np.floor(ratio * n + 0.5))


# ---------------------------------------------------------------------------
# batched kernels

# the one crop law of the trainer's views and the analyzer's simulated ones:
# area fraction uniform in [0.15, 1], aspect ratio log-uniform in [3/4, 4/3]
CROP_AREA_RANGE = (0.15, 1.0)
CROP_ASPECT_RANGE = (0.75, 4.0 / 3.0)


def random_crops(rng: np.random.Generator, n: int, width: float, height: float,
                 area_range, aspect_range) -> np.ndarray:
    """``n`` random-resized-crop boxes (x0, y0, w, h) in a ``width`` x
    ``height`` source, as (4, n).

    Up to ten rounds draw area fractions, then log-uniform aspect ratios, for
    the boxes still without a size, keeping the sizes that fit; then come
    the x and the y position uniforms of all boxes. A box never fitted takes
    the centred crop of area fraction ``area_range[1]``, clamped.
    """
    lo, hi = area_range
    alo, ahi = aspect_range
    w = np.empty(n)
    h = np.empty(n)
    need = np.ones(n, dtype=bool)
    for _ in range(10):
        m = int(need.sum())
        if m == 0:
            break
        area = rng.uniform(lo, hi, m) * width * height
        ar = np.exp(rng.uniform(np.log(alo), np.log(ahi), m))
        ww = np.sqrt(area * ar)
        hh = np.sqrt(area / ar)
        ok = (ww <= width) & (hh <= height)
        rows = np.flatnonzero(need)[ok]
        w[rows] = ww[ok]
        h[rows] = hh[ok]
        need[rows] = False
    w[need] = min(float(width), np.sqrt(hi * width * height))
    h[need] = np.minimum(float(height), w[need])
    x0 = rng.random(n) * (width - w)
    y0 = rng.random(n) * (height - h)
    x0[need] = (width - w[need]) / 2.0
    y0[need] = (height - h[need]) / 2.0
    return np.stack([x0, y0, w, h])


def rank_chunks(keys: np.ndarray, k: int, n_chunks: int = 1) -> np.ndarray:
    """Column indices of the ``n_chunks * k`` smallest entries of each row of
    ``keys`` (B, N), as (B, n_chunks * k): columns ``[j*k, (j+1)*k)`` hold
    the entries ranked ``j*k`` to ``(j+1)*k - 1``, in no set order within a
    chunk."""
    kth = np.arange(k - 1, n_chunks * k, k)
    return np.argpartition(keys, kth, axis=1)[:, :n_chunks * k]


def index_masks(idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (B, N) with 0/1 rows holding ones at ``idx`` (B, m)."""
    out.fill(0.0)
    np.put_along_axis(out, idx, 1.0, axis=1)
    return out


class Workspace:
    """Work arrays for up to ``rows`` samples on ``n``-square grids, ten of
    ``rows * n * n`` doubles and one of booleans; reused across batches,
    they keep the kernels on the same few pages. The trainer sizes one to
    its batch, the analyzer to a tile of ``asymmetry._TILE_CELLS`` cells."""

    def __init__(self, rows: int, n: int):
        self.rows, self.n = rows, n
        cells = (rows, n * n)
        self.r, self.u, self.mask, self.w, self.keys = (
            np.empty(cells) for _ in range(5))
        self.ox, self.oy, self.lo, self.oym = (
            np.empty((rows, n, n)) for _ in range(4))
        self.pos = np.empty(cells, dtype=bool)
        self.draws = np.empty(rows * n * n)


def overlap_profiles(box1: np.ndarray, box2: np.ndarray, mask1: np.ndarray,
                     work: Workspace, flip1=None, flip2=None) -> np.ndarray:
    """Overlap ratio of every view-2 patch against the union of view-1's
    sampled patches (1.0 in ``mask1``), (B, N), as a view of ``work.r``.

    Crop boxes (4, B) are (x0, y0, w, h) in source coordinates, tiled into
    ``work.n``-square grids; patch column ``c`` starts at ``x0 + c' * w / n``
    with ``c' = n - 1 - c`` where the (B,) ``flip`` is set. Patch-cell
    intersections factor into row times column overlaps, so the profile is
    two batched matrix products.
    """
    x0a, y0a, wa, ha = box1
    x0b, y0b, wb, hb = box2
    t, n = wa.size, work.n
    ox, oy, lo = work.ox[:t], work.oy[:t], work.lo[:t]
    _interval_overlaps(_patch_starts(x0b, wb, n, flip2), wb / n,
                       _patch_starts(x0a, wa, n, flip1), wa / n, ox, lo)
    _interval_overlaps(_patch_starts(y0b, hb, n), hb / n,
                       _patch_starts(y0a, ha, n), ha / n, oy, lo)
    r = work.r[:t]
    areas = r.reshape(t, n, n)                                   # t,r2,c2
    np.matmul(np.matmul(oy, mask1.reshape(t, n, n), out=work.oym[:t]),
              np.swapaxes(ox, 1, 2), out=areas)
    areas /= ((wb / n) * (hb / n))[:, None, None]
    np.clip(areas, 0.0, 1.0, out=areas)
    return r


def _patch_starts(start, length, n, flip=None):
    """Source-space start of each of ``n`` patch columns (or rows), (B, n)."""
    j = np.arange(n)
    if flip is not None:
        j = np.where(flip[:, None], n - 1 - j, j)
    return start[:, None] + j * (length[:, None] / n)


def _interval_overlaps(starts2, len2, starts1, len1, out, lo):
    """Overlap lengths (t, n, n) of two tilings' intervals, into ``out``."""
    np.maximum(starts2[:, :, None], starts1[:, None, :], out=lo)
    np.minimum((starts2 + len2[:, None])[:, :, None],
               (starts1 + len1[:, None])[:, None, :], out=out)
    out -= lo
    np.maximum(out, 0.0, out=out)


def selective_weights(profile: np.ndarray, gamma: float, out=None) -> np.ndarray:
    """Relative draw weights (1 - r)**gamma for the selective view-2 sample."""
    r = np.asarray(profile, dtype=float)
    # written so that NaN, which compares false, fails
    if not (r.min() >= -1e-9 and r.max() <= 1.0 + 1e-9):
        raise ValueError("overlap profile entries must lie in [0, 1]")
    _check_gamma(gamma)
    w = np.clip(r, 0.0, 1.0, out=out)
    np.subtract(1.0, w, out=w)
    return np.power(w, gamma, out=w)


def race_keys(weights: np.ndarray, rng: np.random.Generator, work=None):
    """Exponential race keys ``E / w`` of (B, N) nonnegative weights, +inf
    where ``w = 0``, and each row's count of positive weights; the ``E`` are
    drawn in row-major order of the positive weights. With a
    :class:`Workspace`, the keys are a view of ``work.keys``."""
    t = weights.shape[0]
    if work is None:
        keys, pos, draws = np.empty(weights.shape), None, None
    else:
        keys, pos, draws = work.keys[:t], work.pos[:t], work.draws
    pos = np.greater(weights, 0.0, out=pos)
    n_pos = np.count_nonzero(pos, axis=1)
    total = int(n_pos.sum())
    keys.fill(1.0)
    keys[pos] = rng.standard_exponential(
        total, out=None if draws is None else draws[:total])
    with np.errstate(divide="ignore"):
        np.divide(keys, weights, out=keys)     # 1 / 0 = +inf
    return keys, n_pos


def selective_race(weights: np.ndarray, k: int, n_views: int,
                   rng: np.random.Generator, work=None) -> np.ndarray:
    """Disjoint weighted samples without replacement of ``k`` of each row's
    indices, (B, n_views * k), view ``v`` in columns ``[v*k, (v+1)*k)``.

    Consecutive chunks of the race order continue the sequential weighted
    draws, so view ``v`` is drawn from the pool left by views ``0..v-1``.
    Draws: every row's keys, then, row by row, a uniform permutation of the
    zero-weight indices (key +inf) of each row with fewer than
    ``n_views * k`` positive weights, which pad its positive-weight indices
    in key order. A padded row warns.
    """
    keys, n_pos = race_keys(weights, rng, work)
    need = n_views * k
    order = rank_chunks(keys, k, n_views)
    for i in np.flatnonzero(n_pos < need):
        warnings.warn("too few positive weights for the draw; padding "
                      "uniformly from zero-weight indices", RuntimeWarning,
                      stacklevel=2)
        finite = keys[i] < np.inf
        chosen = np.flatnonzero(finite)
        chosen = chosen[np.argsort(keys[i, chosen], kind="stable")]
        order[i] = np.concatenate(
            [chosen, rng.permutation(np.flatnonzero(~finite))])[:need]
    return order


def sample_views(rng: np.random.Generator, box1: np.ndarray, box2: np.ndarray,
                 n: int, config: SamplerConfig, flip1=None, flip2=None,
                 work=None):
    """Every sampled view of a batch of crop pairs on ``n``-square grids:
    disjoint uniform crop-1 views, then disjoint selective crop-2 views
    weighted against the union of the crop-1 views. Draws: (B, N) uniforms,
    then :func:`selective_race`. Returns ``(views1, views2, profiles)``: per
    view a (B, k) array of sorted indices, and crop 2's (B, N) profiles, a
    view of ``work.r``. ``work`` is a :class:`Workspace` of at least B rows
    on ``n``-square grids, which a caller reuses across batches; by default
    a fresh one of B rows.
    """
    n1 = (config.n_views + 1) // 2      # the odd view goes to crop 1, and
    n2 = max(config.n_views - n1, 1)    # n_views = 1 still draws one of each
    big_n = n * n
    k1, k2 = sample_count(config.s1, big_n), sample_count(config.s2, big_n)
    for views, k in ((n1, k1), (n2, k2)):
        if k < 1 or views * k > big_n:
            raise ValueError(f"cannot draw {views} disjoint views of {k} "
                             f"patches from a {big_n}-patch grid")
    t = box1.shape[1]
    work = Workspace(t, n) if work is None else work
    first = rank_chunks(rng.random(out=work.u[:t]), k1, n1)
    profiles = overlap_profiles(box1, box2, index_masks(first, work.mask[:t]),
                                work, flip1, flip2)
    w = selective_weights(profiles, config.gamma, out=work.w[:t])
    second = selective_race(w, k2, n2, rng, work)
    split = lambda idx, k, v: [np.sort(idx[:, j * k:(j + 1) * k], axis=1)
                               for j in range(v)]
    return split(first, k1, n1), split(second, k2, n2), profiles
