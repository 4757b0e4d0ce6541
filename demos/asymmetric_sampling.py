"""How the two sampling branches differ.

View 1 keeps a uniform 25% of its patches. View 2 is drawn with weight
(1 - r)^gamma against view 1's footprint: the higher the overlap ratio of a
patch, the less likely it survives. With gamma large, view 2 visibly avoids
view 1. Every draw is one call of ``sample_views`` on a batch of crop pairs.

Run: python demos/asymmetric_sampling.py
"""

import numpy as np

import asympatch as ap

rng = np.random.default_rng(7)
batch, n = 200, 16                      # 200 pairs, 16x16 grids of 2-px patches

# identical full crops of a 32-pixel image make the avoidance easy to read:
# each view-2 patch either coincides with a sampled view-1 cell (r = 1) or
# does not (r = 0)
box = np.zeros((4, batch))
box[2:] = 32.0

for gamma in (0.0, 1.0, 3.0, 8.0):
    (view1,), (view2,), profiles = ap.sample_views(
        rng, box, box, n, ap.SamplerConfig(gamma=gamma))
    picked = np.take_along_axis(profiles, view2, axis=1)
    print(f"gamma={gamma:>4}: {view1.shape[1]} view-1 patches of {n * n}; "
          f"mean overlap of view-2 picks {picked.mean():.4f} "
          f"(uniform would be {profiles.mean():.4f})")

# multi-view reuse: with eight views, each crop gets four pairwise-disjoint
# views that tile its grid. On identical crops every view-2 weight would then
# be 0 for gamma > 0 and the draw would pad, so gamma = 0 here
views1, views2, _ = ap.sample_views(rng, box[:, :1], box[:, :1], n,
                                    ap.SamplerConfig(gamma=0.0, n_views=8))
for name, views in (("crop-1", views1), ("crop-2", views2)):
    all_idx = np.sort(np.concatenate(views, axis=1)[0])
    print(f"4 disjoint {name} views cover the grid exactly:",
          bool(np.array_equal(all_idx, np.arange(n * n))))
