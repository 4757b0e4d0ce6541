"""Walkthrough of the crop/patch overlap geometry.

Two random-resized crops of one image are tiled into patch grids; every
patch footprint is mapped back into source-image coordinates, and the
overlap ratio of each view-2 patch against a sparse view-1 sample is
computed two ways (the batched profile of ``sample_views`` vs direct rect
intersections) to show they agree exactly.

Run: python demos/overlap_geometry.py
"""

import numpy as np

import asympatch as ap

rng = np.random.default_rng(0)
record = ap.synth_dataset(1, 1, 32, seed=1)[0]
params = ap.cifar_augment_params(view_size=32)

# both crops of one record, as (4, 2) boxes (x0, y0, w, h) and (2,) flips
_, box, flip = ap.augment_batch([record, record], params, rng)
crop1, crop2 = (ap.CropBox(rect=ap.Rect(x0, y0, x0 + w, y0 + h),
                           flip=bool(f), view_size=32, source_size=(32.0, 32.0))
                for (x0, y0, w, h), f in zip(box.T.tolist(), flip))
print(f"crop 1: rect={crop1.rect} flip={crop1.flip}")
print(f"crop 2: rect={crop2.rect} flip={crop2.flip}")

grid1 = ap.PatchGrid(crop=crop1, patch_size=2)
grid2 = ap.PatchGrid(crop=crop2, patch_size=2)
print(f"each view tiles into {grid1.n_rows}x{grid1.n_cols} patches")

# a patch footprint in source coordinates
print("patch 0 of view 1 ->", ap.map_patch_to_image(grid1, 0))

# sparse view-1 sample and the per-patch overlap profile of view 2, as a
# batch of one crop pair
(view1,), _, profiles = ap.sample_views(rng, box[:, :1], box[:, 1:],
                                        grid1.n_rows, ap.SamplerConfig(),
                                        flip[:1], flip[1:])
view1, profile = view1[0], profiles[0]
print(f"profile: min={profile.min():.3f} max={profile.max():.3f} "
      f"mean={profile.mean():.3f}")

# the same numbers by brute-force rect intersection, one patch at a time
rects1 = ap.patch_rects(grid1, view1)
direct = np.array([
    ap.overlap_ratio(rects1, ap.map_patch_to_image(grid2, i))
    for i in range(grid2.n_patches)
])
print("max |profile - direct| =", np.abs(profile - direct).max())

# conservation: overlap area summed over grid-2 patches equals the
# intersection area of view-1's sampled union with crop 2
patch2_area = ap.map_patch_to_image(grid2, 0).area
summed = float((profile * patch2_area).sum())
union_in_crop2 = float(sum(
    ap.intersection_area(ap.map_patch_to_image(grid1, int(i)), crop2.rect)
    for i in view1
))
print(f"covered area via profile {summed:.4f} vs via union {union_in_crop2:.4f}")
