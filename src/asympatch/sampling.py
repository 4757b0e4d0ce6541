"""Dual patch sampling as batched array kernels: uniform sparse draws for
view 1, selective, overlap-penalized draws for view 2, and disjoint
multi-view reuse, for a whole batch of crop pairs at once.

The kernels take ``(B, ...)`` arrays, one row per sample, and serve the
trainer, the Monte Carlo analyzer (:mod:`asympatch.asymmetry`) and the demo
alike; :func:`sample_views` chains them for every view of a training batch.
The per-sample functions on :class:`~asympatch.geometry.PatchGrid` objects
(:func:`sample_sparse`, :func:`overlap_profile`, ...) are one-row calls.

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

from .geometry import PatchGrid


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling ratios, selectivity power, and view count."""

    s1: float = 0.25
    s2: float = 0.25
    gamma: float = 3.0
    n_views: int = 2

    def __post_init__(self):
        for name, s in (("s1", self.s1), ("s2", self.s2)):
            if not 0.0 < s <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {s}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.n_views < 1:
            raise ValueError(f"n_views must be >= 1, got {self.n_views}")
        if self.n_views > 2 and (self.n_views + 1) // 2 * max(self.s1, self.s2) > 1.0 + 1e-12:
            raise ValueError("disjoint multi-view reuse needs n_views/2 * s <= 1")


@dataclass(frozen=True)
class PatchIndexSet:
    """A sorted, duplicate-free set of patch indices on one grid."""

    grid: PatchGrid
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = self.indices
        if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
            raise ValueError("indices must be strictly increasing")
        if idx and (idx[0] < 0 or idx[-1] >= self.grid.n_patches):
            raise ValueError("patch index out of grid range")

    def __len__(self) -> int:
        return len(self.indices)

    def mask(self) -> np.ndarray:
        """Boolean membership mask over the grid, shape (n_rows, n_cols)."""
        m = np.zeros(self.grid.n_patches, dtype=bool)
        m[list(self.indices)] = True
        return m.reshape(self.grid.n_rows, self.grid.n_cols)


def sample_count(ratio: float, n: int) -> int:
    """Number of patches kept at a given ratio: round-half-up of ratio * n."""
    return int(np.floor(ratio * n + 0.5))


# ---------------------------------------------------------------------------
# batched kernels

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
    """Work arrays for up to ``rows`` samples on ``n``-square grids; reused
    across batches, they keep the kernels on the same few pages."""

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
    if r.min() < -1e-9 or r.max() > 1.0 + 1e-9:
        raise ValueError("overlap profile entries must lie in [0, 1]")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    w = np.clip(r, 0.0, 1.0, out=out)
    np.subtract(1.0, w, out=w)
    return np.power(w, gamma, out=w)


def race_keys(weights: np.ndarray, rng: np.random.Generator, work=None):
    """Exponential race keys ``E / w`` of (B, N) weights, +inf where
    ``w = 0``, and each row's count of positive weights; the ``E`` are drawn
    in row-major order of the positive weights. With a :class:`Workspace`,
    the keys are a view of ``work.keys``."""
    t = weights.shape[0]
    if work is None:
        keys, pos, draws = np.empty(weights.shape), None, None
    else:
        keys, pos, draws = work.keys[:t], work.pos[:t], work.draws
    pos = np.greater(weights, 0.0, out=pos)
    n_pos = np.count_nonzero(pos, axis=1)
    total = int(n_pos.sum())
    keys.fill(np.inf)
    np.place(keys, pos, rng.standard_exponential(
        total, out=None if draws is None else draws[:total]))
    np.divide(keys, weights, out=keys, where=pos)
    return keys, n_pos


def padded_race_order(keys: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Race order of one row of keys with too few positive weights: the
    positive-weight indices by key, then the zero-weight ones (key +inf) in
    uniformly random order. Warns, since the draw is padded."""
    warnings.warn("too few positive weights for the draw; padding uniformly "
                  "from zero-weight indices", RuntimeWarning, stacklevel=3)
    finite = keys < np.inf
    chosen = np.flatnonzero(finite)
    chosen = chosen[np.argsort(keys[chosen], kind="stable")]
    return np.concatenate([chosen, rng.permutation(np.flatnonzero(~finite))])


def selective_race(weights: np.ndarray, k: int, n_views: int,
                   rng: np.random.Generator, work=None) -> np.ndarray:
    """Disjoint weighted samples without replacement of ``k`` of each row's
    indices, (B, n_views * k), view ``v`` in columns ``[v*k, (v+1)*k)``.

    Consecutive chunks of the race order continue the sequential weighted
    draws, so view ``v`` is drawn from the pool left by views ``0..v-1``.
    Draws: every row's keys, then the padding permutation of each row with
    fewer than ``n_views * k`` positive weights, row by row.
    """
    keys, n_pos = race_keys(weights, rng, work)
    need = n_views * k
    order = rank_chunks(keys, k, n_views)
    for i in np.flatnonzero(n_pos < need):
        order[i] = padded_race_order(keys[i], rng)[:need]
    return order


def sample_views(rng: np.random.Generator, box1: np.ndarray, box2: np.ndarray,
                 n: int, config: SamplerConfig, flip1=None, flip2=None):
    """Every sampled view of a batch of crop pairs on ``n``-square grids:
    disjoint uniform crop-1 views, then disjoint selective crop-2 views
    weighted against the union of the crop-1 views. Draws: (B, N) uniforms,
    then :func:`selective_race`. Returns ``(views1, views2, profiles)``: per
    view a (B, k) array of sorted indices, and crop 2's (B, N) profiles.
    """
    n1 = (config.n_views + 1) // 2      # the odd view goes to crop 1, and
    n2 = max(config.n_views - n1, 1)    # n_views = 1 still draws one of each
    big_n = n * n
    k1, k2 = sample_count(config.s1, big_n), sample_count(config.s2, big_n)
    for views, k in ((n1, k1), (n2, k2)):
        if k < 1 or views * k > big_n:
            raise ValueError(f"cannot draw {views} disjoint views of {k} "
                             f"patches from a {big_n}-patch grid")
    work = Workspace(box1.shape[1], n)
    first = rank_chunks(rng.random((work.rows, big_n)), k1, n1)
    profiles = overlap_profiles(box1, box2, index_masks(first, work.mask), work,
                                flip1, flip2)
    w = selective_weights(profiles, config.gamma, out=work.w)
    second = selective_race(w, k2, n2, rng, work)
    split = lambda idx, k, v: [np.sort(idx[:, j * k:(j + 1) * k], axis=1)
                               for j in range(v)]
    return split(first, k1, n1), split(second, k2, n2), profiles


# ---------------------------------------------------------------------------
# one-sample calls on patch grids

def _as_index_set(grid: PatchGrid, idx: np.ndarray) -> PatchIndexSet:
    return PatchIndexSet(grid=grid, indices=tuple(int(i) for i in np.sort(idx)))


def _chunked_sets(grid, order, k, n_views):
    return [_as_index_set(grid, order[v * k:(v + 1) * k]) for v in range(n_views)]


def sample_sparse(grid: PatchGrid, s1: float, rng: np.random.Generator) -> PatchIndexSet:
    """Uniform sample without replacement of round(s1 * N) patch indices."""
    if not 0.0 < s1 <= 1.0:
        raise ValueError(f"s1 must lie in (0, 1], got {s1}")
    return sample_multi_view(grid, s1, 1, rng)[0]


def sample_multi_view(grid: PatchGrid, s: float, n_views: int,
                      rng: np.random.Generator) -> list[PatchIndexSet]:
    """Pairwise-disjoint uniform samples, each over the remaining pool."""
    if n_views < 1:
        raise ValueError("n_views must be >= 1")
    n = grid.n_patches
    k = sample_count(s, n)
    if k < 1:
        raise ValueError(f"ratio {s} keeps no patch on a {n}-patch grid")
    if n_views * k > n:
        raise ValueError(f"{n_views} disjoint views of {k} patches exceed {n}")
    order = rank_chunks(rng.random((1, n)), k, n_views)[0]
    return _chunked_sets(grid, order, k, n_views)


def overlap_profile(view1: PatchIndexSet, grid2: PatchGrid) -> np.ndarray:
    """Per-patch overlap ratios of ``grid2`` against view-1's sampled union.

    Element ``i`` equals the fraction of grid-2 patch ``i`` covered by the
    union of view-1's sampled footprints, all measured in source-image
    coordinates (see :func:`overlap_profiles`).
    """
    c1, c2 = view1.grid.crop, grid2.crop
    if c1.source_size != c2.source_size:
        raise ValueError("grids reference different source images: "
                         f"{c1.source_size} vs {c2.source_size}")
    if view1.grid.n_rows != grid2.n_rows:
        raise ValueError("grids of different sizes")
    box1, box2 = (np.array([[c.rect.x0], [c.rect.y0], [c.rect.x1 - c.rect.x0],
                            [c.rect.y1 - c.rect.y0]]) for c in (c1, c2))
    mask = view1.mask().reshape(1, -1).astype(float)
    return overlap_profiles(box1, box2, mask, Workspace(1, grid2.n_rows),
                            np.array([c1.flip]), np.array([c2.flip]))[0]


def weighted_sample_without_replacement(weights: np.ndarray, k: int,
                                        rng: np.random.Generator) -> np.ndarray:
    """Draw ``k`` distinct indices with sequential-renormalized-draw law.

    Implemented as an exponential race: the k smallest keys ``E_i / w_i``.
    Indices with zero weight are only used to pad when fewer than ``k``
    weights are positive, uniformly at random, with a warning.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    if not 0 < k <= w.size:
        raise ValueError(f"cannot draw {k} of {w.size} items")
    return selective_race(w[None], k, 1, rng)[0]


def sample_selective(grid2: PatchGrid, weights: np.ndarray, s2: float,
                     rng: np.random.Generator) -> PatchIndexSet:
    """Weighted sample without replacement of round(s2 * N) grid-2 patches."""
    if not 0.0 < s2 <= 1.0:
        raise ValueError(f"s2 must lie in (0, 1], got {s2}")
    w = np.asarray(weights, dtype=float)
    if w.size != grid2.n_patches:
        raise ValueError(
            f"{w.size} weights for a {grid2.n_patches}-patch grid"
        )
    k = sample_count(s2, grid2.n_patches)
    if k < 1:
        raise ValueError(f"ratio {s2} keeps no patch on this grid")
    return _as_index_set(grid2, weighted_sample_without_replacement(w, k, rng))


def sample_selective_views(grid2: PatchGrid, weights: np.ndarray, s2: float,
                           n_views: int, rng: np.random.Generator) -> list[PatchIndexSet]:
    """Pairwise-disjoint selective samples for multi-view reuse (see
    :func:`selective_race`)."""
    n = grid2.n_patches
    k = sample_count(s2, n)
    if n_views * k > n:
        raise ValueError(f"{n_views} disjoint views of {k} patches exceed {n}")
    order = selective_race(np.asarray(weights, dtype=float)[None], k, n_views, rng)[0]
    return _chunked_sets(grid2, order, k, n_views)
