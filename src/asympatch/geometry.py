"""Axis-aligned crop and patch-grid geometry in source-image coordinates.

Everything here is exact, continuous-coordinate arithmetic: crop boxes from
random-resized-crop are fractional, so rects carry sub-pixel floats and areas
are computed analytically instead of by rasterization. Edge-adjacent rects
have zero intersection area (boundaries are measure zero and must not perturb
overlap ratios).

A ``CropBox`` records how a resized square view maps back onto the original
image: an affine scale + translate, with an optional horizontal mirror. A
``PatchGrid`` tiles that view into square patches; because the tiling is
exact and the map is affine, the mapped patch footprints are pairwise
disjoint in image space, which makes union-vs-patch overlap ratios a sum of
pairwise intersections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle with continuous coordinates, x0 < x1, y0 < y1."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError(
                f"degenerate rect ({self.x0}, {self.y0}, {self.x1}, {self.y1})"
            )

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.y0, self.x1, self.y1], dtype=float)


@dataclass(frozen=True)
class CropBox:
    """A crop of the source image plus the resize/flip bookkeeping.

    ``rect`` is the crop region in source-image pixels, ``view_size`` the
    square side of the resized view, and ``source_size`` the (width, height)
    of the original image the rect must lie inside. The view-to-image map is
    invertible by construction.
    """

    rect: Rect
    flip: bool
    view_size: int
    source_size: tuple[float, float]

    def __post_init__(self):
        if self.view_size <= 0:
            raise ValueError("view_size must be a positive integer")
        w, h = self.source_size
        r = self.rect
        if r.x0 < -_EDGE_TOL or r.y0 < -_EDGE_TOL \
                or r.x1 > w + _EDGE_TOL or r.y1 > h + _EDGE_TOL:
            raise ValueError(
                f"crop rect {r} exceeds source image bounds {self.source_size}"
            )

    @property
    def scale_x(self) -> float:
        return (self.rect.x1 - self.rect.x0) / self.view_size

    @property
    def scale_y(self) -> float:
        return (self.rect.y1 - self.rect.y0) / self.view_size


def full_image_crop(image_size: int, view_size: int | None = None,
                    flip: bool = False) -> CropBox:
    """Identity crop covering the whole (square) source image."""
    s = float(image_size)
    return CropBox(
        rect=Rect(0.0, 0.0, s, s),
        flip=flip,
        view_size=int(view_size if view_size is not None else image_size),
        source_size=(s, s),
    )


@dataclass(frozen=True)
class PatchGrid:
    """Square patch tiling of a crop's resized view.

    ``n_rows * patch_size == view_size`` is enforced so the grid tiles the
    view exactly; patch index ``i`` sits at row ``i // n_cols``, column
    ``i % n_cols`` of the view.
    """

    crop: CropBox
    patch_size: int

    def __post_init__(self):
        if self.patch_size <= 0:
            raise ValueError("patch_size must be positive")
        if self.crop.view_size % self.patch_size != 0:
            raise ValueError(
                f"patch_size {self.patch_size} does not tile view_size "
                f"{self.crop.view_size}"
            )

    @property
    def n_rows(self) -> int:
        return self.crop.view_size // self.patch_size

    @property
    def n_cols(self) -> int:
        return self.crop.view_size // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.n_rows * self.n_cols


def map_patch_to_image(grid: PatchGrid, index: int) -> Rect:
    """Footprint of patch ``index`` in source-image coordinates."""
    if not 0 <= index < grid.n_patches:
        raise IndexError(f"patch index {index} out of range [0, {grid.n_patches})")
    return Rect(*(float(v) for v in patch_rects(grid, [index])[0]))


def patch_rects(grid: PatchGrid, indices=None) -> np.ndarray:
    """Footprints of grid patches as an (n, 4) array of (x0, y0, x1, y1).

    ``indices=None`` returns all patches in index order. A horizontal flip
    mirrors which slice of the crop each view column shows, so column ``c``
    under flip covers what column ``n_cols - 1 - c`` covers without.
    """
    if indices is None:
        idx = np.arange(grid.n_patches)
    else:
        idx = np.asarray(list(indices), dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= grid.n_patches):
            raise IndexError("patch index out of range")
    rows, cols = np.divmod(idx, grid.n_cols)
    if grid.crop.flip:
        cols = grid.n_cols - 1 - cols
    crop, p = grid.crop, grid.patch_size
    x0 = crop.rect.x0 + cols * p * crop.scale_x
    y0 = crop.rect.y0 + rows * p * crop.scale_y
    return np.stack([x0, y0, x0 + p * crop.scale_x, y0 + p * crop.scale_y],
                    axis=1)


def intersection_area(a: Rect, b: Rect) -> float:
    """Area of a ∩ b; zero when disjoint or merely edge-adjacent."""
    w = min(a.x1, b.x1) - max(a.x0, b.x0)
    h = min(a.y1, b.y1) - max(a.y0, b.y0)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def intersection_areas(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise intersection areas of two rect arrays: (m, 4), (k, 4) -> (m, k)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    w = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    h = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    return np.clip(w, 0.0, None) * np.clip(h, 0.0, None)


def overlap_ratio(sampled_view1, patch2: Rect) -> float:
    """Fraction of ``patch2`` covered by the union of view-1 patch footprints.

    The view-1 rects must be pairwise disjoint (guaranteed when they come from
    one ``PatchGrid``), so the union intersection is the sum of pairwise
    intersections. The result is clipped into [0, 1] against float round-off.
    """
    if isinstance(sampled_view1, np.ndarray):
        rects = sampled_view1
    else:
        rects = np.array([r.as_array() if isinstance(r, Rect) else r
                          for r in sampled_view1], dtype=float)
    if rects.size == 0:
        return 0.0
    covered = intersection_areas(rects.reshape(-1, 4),
                                 patch2.as_array().reshape(1, 4)).sum()
    return float(np.clip(covered / patch2.area, 0.0, 1.0))
