import itertools
import warnings

import numpy as np
import pytest
from scipy import stats

from asympatch.geometry import (CropBox, PatchGrid, Rect,
                                map_patch_to_image, overlap_ratio,
                                patch_rects)
from asympatch.sampling import (SamplerConfig, Workspace, index_masks,
                                overlap_profiles, random_crops, rank_chunks,
                                sample_count, sample_views, selective_race,
                                selective_weights)


def grid_for(rect, flip=False, view_size=32, patch_size=2, source=32.0):
    return PatchGrid(
        crop=CropBox(rect=rect, flip=flip, view_size=view_size,
                     source_size=(source, source)),
        patch_size=patch_size,
    )


def boxes(batch, x0=0.0, y0=0.0, w=16.0, h=16.0):
    """(4, batch) copies of one crop box (x0, y0, w, h)."""
    return np.tile(np.array([[x0], [y0], [w], [h]], dtype=float), batch)


def counts_of(idx, n):
    return np.bincount(np.ravel(idx), minlength=n)


def profile_of(box1, box2, idx, n, flip1=None, flip2=None):
    """Overlap profiles of crop 2 against view-1 patches ``idx`` (B, k)."""
    work = Workspace(box1.shape[1], n)
    return overlap_profiles(box1, box2, index_masks(idx, work.mask), work,
                            flip1, flip2)


def sequential_set_probabilities(weights, k):
    """Exact law of k sequential renormalized weighted draws, by enumeration."""
    n = len(weights)
    probs = {}
    for perm in itertools.permutations(range(n), k):
        p = 1.0
        remaining = float(sum(weights))
        for i in perm:
            p *= weights[i] / remaining
            remaining -= weights[i]
        key = tuple(sorted(perm))
        probs[key] = probs.get(key, 0.0) + p
    return probs


class TestSamplerConfig:
    def test_defaults_valid(self):
        SamplerConfig()

    @pytest.mark.parametrize("kw", [
        dict(s1=0.0), dict(s2=1.5), dict(gamma=-1.0), dict(n_views=0),
        dict(s1=0.4, s2=0.4, n_views=6), dict(gamma=np.nan),
        dict(gamma=np.inf),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            SamplerConfig(**kw)


class TestSampleSparse:
    """View 1 of :func:`sample_views`: a uniform sample of round(s1 * N)
    patches per row."""

    def test_full_ratio_keeps_all(self):
        (view1,), _, _ = sample_views(np.random.default_rng(0), boxes(3),
                                      boxes(3), 16,
                                      SamplerConfig(s1=1.0, gamma=0.0))
        assert view1.tolist() == [list(range(256))] * 3

    def test_quarter_on_16x16_grid(self):
        (view1,), _, _ = sample_views(np.random.default_rng(0), boxes(4),
                                      boxes(4), 16, SamplerConfig())
        assert view1.shape == (4, 64)
        assert all(np.unique(row).size == 64 for row in view1)

    def test_deterministic_under_seed(self):
        setup = np.random.default_rng(3)
        box1, box2 = (random_crops(setup, 4, 16.0, 16.0, (0.15, 1.0),
                                   (0.75, 4 / 3)) for _ in range(2))
        a = sample_views(np.random.default_rng(42), box1, box2, 16,
                         SamplerConfig())
        b = sample_views(np.random.default_rng(42), box1, box2, 16,
                         SamplerConfig())
        for x, y in zip(a[0] + a[1] + [a[2]], b[0] + b[1] + [b[2]]):
            assert x.tobytes() == y.tobytes()

    def test_every_index_equally_likely(self):
        trials = 4000                                 # 4x4 grid per row
        (view1,), _, _ = sample_views(np.random.default_rng(1), boxes(trials),
                                      boxes(trials), 4, SamplerConfig())
        counts = counts_of(view1, 16)
        # each index kept w.p. 4/16; chi-square against uniform counts
        chi = ((counts - counts.mean()) ** 2 / counts.mean()).sum()
        assert stats.chi2.sf(chi, df=15) > 0.01


class TestOverlapProfile:
    """:func:`overlap_profiles`: the per-patch overlap of crop 2 against
    the union of view-1's sampled footprints."""

    def test_disjoint_crops_all_zero(self):
        idx = rank_chunks(np.random.default_rng(0).random((2, 16)), 8)
        prof = profile_of(boxes(2, 0, 0, 8, 8), boxes(2, 16, 16, 8, 8), idx, 4)
        assert not prof.any()

    def test_identical_crops_full_view1(self):
        box = boxes(2, 0, 0, 32, 32)
        prof = profile_of(box, box, np.tile(np.arange(256), (2, 1)), 16)
        assert prof == pytest.approx(np.ones((2, 256)))

    def test_single_patch_identical_2x2(self):
        box = boxes(1, 0, 0, 4, 4)
        assert profile_of(box, box, np.array([[0]]), 2).tolist() \
            == [[1.0, 0.0, 0.0, 0.0]]

    @pytest.mark.parametrize("flip1,flip2", [(False, False), (True, False),
                                             (False, True), (True, True)])
    def test_matches_direct_geometry(self, flip1, flip2):
        # vectorized profile vs per-patch rect intersections (dual route)
        rng = np.random.default_rng(5)
        g1 = grid_for(Rect(1.3, 2.7, 25.3, 26.7), flip=flip1, view_size=8,
                      patch_size=2)
        g2 = grid_for(Rect(8.9, 0.4, 28.9, 20.4), flip=flip2, view_size=8,
                      patch_size=2)
        idx = rank_chunks(rng.random((1, 16)), sample_count(0.375, 16))
        prof = profile_of(boxes(1, 1.3, 2.7, 24.0, 24.0),
                          boxes(1, 8.9, 0.4, 20.0, 20.0), idx, 4,
                          np.array([flip1]), np.array([flip2]))[0]
        rects1 = patch_rects(g1, idx[0])
        direct = np.array([
            overlap_ratio(rects1, map_patch_to_image(g2, i))
            for i in range(g2.n_patches)
        ])
        assert prof == pytest.approx(direct, abs=1e-12)


class TestSelectiveWeights:
    def test_gamma_zero_uniform(self):
        prof = np.array([0.0, 0.3, 1.0])
        assert selective_weights(prof, 0.0).tolist() == [1.0, 1.0, 1.0]

    def test_full_overlap_never_sampled(self):
        assert selective_weights(np.array([1.0]), 3.0)[0] == 0.0

    def test_kernel_value(self):
        assert selective_weights(np.array([0.5]), 3.0)[0] == pytest.approx(0.125)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            selective_weights(np.array([1.2]), 1.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        # 1**nan == 1 would keep only the zero-overlap patches: gamma = inf
        with pytest.raises(ValueError, match="finite"):
            selective_weights(np.array([0.0, 0.5]), gamma)


class TestWeightedDraw:
    """:func:`selective_race`: weighted sampling without replacement."""

    def test_two_item_pick_frequency(self):
        # P(pick item 0) = 1 / (1 + 0.125)
        trials = 100_000
        w = np.tile([1.0, 0.125], (trials, 1))
        out = selective_race(w, 1, 1, np.random.default_rng(0))
        hits = int((out[:, 0] == 0).sum())
        p = 1.0 / 1.125
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 4 * sigma

    def test_matches_sequential_enumeration(self):
        # race draw vs exact enumeration of sequential renormalized draws
        w = [3.0, 2.0, 1.0, 0.5]
        k = 2
        expected = sequential_set_probabilities(w, k)
        trials = 40_000
        out = selective_race(np.tile(w, (trials, 1)), k, 1,
                             np.random.default_rng(1))
        counts = {key: 0 for key in expected}
        for row in np.sort(out, axis=1).tolist():
            counts[tuple(row)] += 1
        keys = sorted(expected)
        obs = np.array([counts[key] for key in keys], dtype=float)
        exp = np.array([expected[key] * trials for key in keys])
        chi = ((obs - exp) ** 2 / exp).sum()
        assert stats.chi2.sf(chi, df=len(keys) - 1) > 0.01

    def test_exactly_k_positive_weights_deterministic(self):
        w = np.array([[0.0, 2.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = selective_race(w, 2, 1, np.random.default_rng(0))
        assert sorted(out[0].tolist()) == [1, 3]

    def test_padding_from_zero_weights_warns(self):
        w = np.array([[0.0, 2.0, 0.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="padding"):
            out = selective_race(w, 3, 1, np.random.default_rng(0))
        assert 1 in out[0].tolist()
        assert len(set(out[0].tolist())) == 3


class TestSampleSelective:
    """View 2: the race over (1 - r)**gamma weights."""

    def test_cardinality_and_range(self):
        setup = np.random.default_rng(1)
        box1, box2 = (random_crops(setup, 8, 16.0, 16.0, (0.15, 1.0),
                                   (0.75, 4 / 3)) for _ in range(2))
        _, (view2,), _ = sample_views(np.random.default_rng(0), box1, box2,
                                      16, SamplerConfig())
        assert view2.shape == (8, 64)
        assert all(np.unique(row).size == 64 for row in view2)
        assert view2.min() >= 0 and view2.max() < 256

    def test_uniform_limit_matches_sparse(self):
        # gamma = 0 weights: view 2's law is indistinguishable from view 1's
        trials = 8000                                 # 16 patches per row
        setup = np.random.default_rng(2)
        box1, box2 = (random_crops(setup, trials, 16.0, 16.0, (0.15, 1.0),
                                   (0.75, 4 / 3)) for _ in range(2))
        (view1,), (view2,), _ = sample_views(np.random.default_rng(2), box1,
                                             box2, 4, SamplerConfig(gamma=0.0))
        table = np.stack([counts_of(view2, 16), counts_of(view1, 16)])
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 0.01

    def test_monotonicity_in_overlap(self):
        # raising one patch's overlap ratio never raises its pick frequency
        trials = 6000
        prof_lo = np.zeros((trials, 16))
        prof_hi = np.zeros((trials, 16))
        prof_lo[:, 5] = 0.2
        prof_hi[:, 5] = 0.8
        hits = [int((selective_race(selective_weights(prof, 3.0), 4, 1,
                                    np.random.default_rng(3)) == 5).sum())
                for prof in (prof_lo, prof_hi)]
        assert hits[1] < hits[0]


class TestMultiView:
    """Disjoint multi-view reuse: consecutive chunks of one ordering."""

    def test_exact_partition(self):
        # four views per crop of a 16x16 grid, 64 patches each; gamma = 0,
        # since with identical crops every view-2 weight would be 0 otherwise
        box = boxes(1, 0, 0, 32, 32)
        views1, views2, _ = sample_views(np.random.default_rng(0), box, box,
                                         16, SamplerConfig(gamma=0.0,
                                                           n_views=8))
        for views in (views1, views2):
            assert len(views) == 4
            assert np.sort(np.concatenate(views, axis=1)[0]).tolist() \
                == list(range(256))

    def test_disjoint_cardinalities(self):
        cfg = SamplerConfig(s1=0.2, s2=0.2, gamma=0.0, n_views=6)
        views1, views2, _ = sample_views(np.random.default_rng(1), boxes(2),
                                         boxes(2), 16, cfg)
        for views in (views1, views2):
            seen = np.concatenate(views, axis=1)
            assert seen.shape == (2, 3 * 51)          # round(0.2 * 256) = 51
            assert all(np.unique(row).size == 3 * 51 for row in seen)

    def test_single_view_matches_sparse_distribution(self):
        # the first of two disjoint crop-1 views has the single view's law
        trials = 6000
        first = [sample_views(np.random.default_rng(4), boxes(trials),
                              boxes(trials), 4,
                              SamplerConfig(gamma=0.0, n_views=v))[0][0]
                 for v in (4, 2)]
        table = np.stack([counts_of(view, 16) for view in first])
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 0.01

    def test_insufficient_patches_rejected(self):
        # round(0.5 * 9) = 5, and two disjoint views of 5 exceed 9 patches
        with pytest.raises(ValueError, match="disjoint views"):
            sample_views(np.random.default_rng(0), boxes(1), boxes(1), 3,
                         SamplerConfig(s1=0.5, s2=0.5, n_views=4))

    def test_selective_views_disjoint(self):
        prof = np.random.default_rng(5).random((8, 256)) * 0.9
        w = selective_weights(prof, 3.0)
        views = selective_race(w, 64, 2, np.random.default_rng(6))
        assert views.shape == (8, 128)
        assert all(np.unique(row).size == 128 for row in views)

    def test_selective_views_first_chunk_law(self):
        # first chunk of the multi-view draw has the same law as a single draw
        trials = 6000
        prof = np.zeros((trials, 16))
        prof[:, :4] = 0.9
        w = selective_weights(prof, 2.0)
        first = selective_race(w, 4, 2, np.random.default_rng(7))[:, :4]
        single = selective_race(w, 4, 1, np.random.default_rng(7))
        table = np.stack([counts_of(first, 16), counts_of(single, 16)])
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 0.01


# ---------------------------------------------------------------------------
# per-sample reference of sample_views: the same draws (one (B, N) block of
# uniforms, then the race keys of every row's positive weights in row-major
# order, then the padding permutation of each short row), with the maths
# written out one sample at a time and the orderings taken by a stable sort

def _reference_starts(start, length, n, flip):
    j = np.arange(n)
    if flip:
        j = n - 1 - j
    return start + j * (length / n)


def _reference_overlaps(starts2, len2, starts1, len1):
    lo = np.maximum(starts2[:, None], starts1[None, :])
    hi = np.minimum((starts2 + len2)[:, None], (starts1 + len1)[None, :])
    return np.maximum(hi - lo, 0.0)


def _reference_profile(box1, box2, mask, n, flip1, flip2):
    x0a, y0a, wa, ha = box1
    x0b, y0b, wb, hb = box2
    ox = _reference_overlaps(_reference_starts(x0b, wb, n, flip2), wb / n,
                             _reference_starts(x0a, wa, n, flip1), wa / n)
    oy = _reference_overlaps(_reference_starts(y0b, hb, n, False), hb / n,
                             _reference_starts(y0a, ha, n, False), ha / n)
    areas = (oy @ mask.reshape(n, n)) @ ox.T
    return np.clip(areas / ((wb / n) * (hb / n)), 0.0, 1.0).ravel()


def branch_views(cfg):
    n1 = (cfg.n_views + 1) // 2
    return n1, max(cfg.n_views - n1, 1)


def reference_sample_views(rng, box1, box2, n, cfg, flip1, flip2):
    n1, n2 = branch_views(cfg)
    big_n = n * n
    k1, k2 = sample_count(cfg.s1, big_n), sample_count(cfg.s2, big_n)
    batch = box1.shape[1]
    u = rng.random((batch, big_n))
    views1 = [[] for _ in range(n1)]
    profiles, keys = [], []
    for b in range(batch):
        order = np.argsort(u[b], kind="stable")
        for j in range(n1):
            views1[j].append(np.sort(order[j * k1:(j + 1) * k1]))
        mask = np.zeros(big_n)
        mask[order[:n1 * k1]] = 1.0
        r = _reference_profile(box1[:, b], box2[:, b], mask, n,
                               flip1[b], flip2[b])
        w = (1.0 - r) ** cfg.gamma
        key = np.full(big_n, np.inf)
        key[w > 0.0] = rng.standard_exponential(int((w > 0.0).sum())) / w[w > 0.0]
        profiles.append(r)
        keys.append(key)
    views2 = [[] for _ in range(n2)]
    for b in range(batch):
        key = keys[b]
        if np.count_nonzero(key < np.inf) >= n2 * k2:
            order = np.argsort(key, kind="stable")
        else:
            pos = np.flatnonzero(key < np.inf)
            order = np.concatenate([pos[np.argsort(key[pos], kind="stable")],
                                    rng.permutation(np.flatnonzero(key == np.inf))])
        for j in range(n2):
            views2[j].append(np.sort(order[j * k2:(j + 1) * k2]))
    stack = lambda views: [np.stack(v) for v in views]
    return stack(views1), stack(views2), np.stack(profiles)


def _pair_crops(rng, batch, crops):
    if crops == "identical":
        full = np.zeros((4, batch))
        full[2:] = 16.0
        return full, full.copy()
    return (random_crops(rng, batch, 16.0, 16.0, (0.15, 1.0), (0.75, 4 / 3)),
            random_crops(rng, batch, 16.0, 16.0, (0.15, 1.0), (0.75, 4 / 3)))


# (sampler, crops, flip probability, share of rows expected short); grid 8
# unless the name says otherwise
VIEW_CASES = {
    "two-views": (SamplerConfig(), "random", 0.0, (0.0, 0.0)),
    "four-views": (SamplerConfig(n_views=4), "random", 0.0, (0.0, 0.0)),
    "four-views-grid-32": (SamplerConfig(n_views=4), "random", 0.5, (0.0, 0.0)),
    "flips": (SamplerConfig(), "random", 0.5, (0.0, 0.0)),
    "s1-ne-s2": (SamplerConfig(s1=0.375, s2=0.125, gamma=1.0), "random", 0.5,
                 (0.0, 0.0)),
    "gamma-zero": (SamplerConfig(gamma=0.0, n_views=3), "random", 0.5,
                   (0.0, 0.0)),
    "every-row-short": (SamplerConfig(s1=0.75, s2=0.5), "identical", 0.0,
                        (1.0, 1.0)),
    "some-rows-short": (SamplerConfig(s1=1.0, s2=0.6, gamma=2.0), "random",
                        0.5, (0.1, 0.6)),
    "some-rows-short-four-views": (SamplerConfig(s1=0.5, s2=0.25, n_views=4),
                                   "random", 0.5, (0.05, 0.8)),
}


class TestSampleViews:
    @pytest.mark.parametrize("name", sorted(VIEW_CASES))
    def test_matches_per_sample_reference_bit_for_bit(self, name):
        cfg, crops, flip_prob, (low, high) = VIEW_CASES[name]
        setup = np.random.default_rng(31)
        batch, n = 48, 32 if name.endswith("grid-32") else 8
        box1, box2 = _pair_crops(setup, batch, crops)
        flip1 = setup.random(batch) < flip_prob
        flip2 = setup.random(batch) < flip_prob
        rng_ref = np.random.default_rng(5)
        rng = np.random.default_rng(5)
        expect = reference_sample_views(rng_ref, box1, box2, n, cfg,
                                        flip1, flip2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            views1, views2, profiles = sample_views(rng, box1, box2, n, cfg,
                                                    flip1, flip2)
        assert profiles.tobytes() == expect[2].tobytes()
        for got, ref in zip(views1 + views2, expect[0] + expect[1]):
            assert got.tobytes() == ref.tobytes()
        assert (len(views1), len(views2)) == branch_views(cfg)
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        padded = sum("padding" in str(w.message) for w in caught)
        assert low <= padded / batch <= high

    @pytest.mark.filterwarnings("ignore:too few positive weights")
    @pytest.mark.parametrize("name", ["four-views", "some-rows-short-four-views"])
    def test_views_are_disjoint_and_full(self, name):
        cfg, crops, flip_prob, _ = VIEW_CASES[name]
        rng = np.random.default_rng(2)
        box1, box2 = _pair_crops(rng, 32, crops)
        views1, views2, _ = sample_views(rng, box1, box2, 8, cfg)
        k1, k2 = sample_count(cfg.s1, 64), sample_count(cfg.s2, 64)
        for views, k in ((views1, k1), (views2, k2)):
            both = np.concatenate(views, axis=1)
            assert both.shape == (32, len(views) * k)
            assert all(np.unique(row).size == row.size for row in both)

    def test_profiles_match_direct_geometry_with_flips(self):
        rng = np.random.default_rng(9)
        box1, box2 = _pair_crops(rng, 6, "random")
        flip1 = np.array([True, False, True, False, True, True])
        flip2 = np.array([False, True, True, False, False, True])
        views1, _, profiles = sample_views(rng, box1, box2, 4, SamplerConfig(),
                                           flip1, flip2)
        for b in range(6):
            grids = [grid_for(Rect(x0, y0, x0 + w, y0 + h), flip=f,
                              view_size=8, source=16.0)
                     for (x0, y0, w, h), f in ((box1[:, b], flip1[b]),
                                               (box2[:, b], flip2[b]))]
            rects1 = patch_rects(grids[0], views1[0][b])
            direct = [overlap_ratio(rects1, map_patch_to_image(grids[1], i))
                      for i in range(16)]
            assert profiles[b] == pytest.approx(direct, abs=1e-12)

    def test_too_few_patches_rejected(self):
        rng = np.random.default_rng(0)
        box1, box2 = _pair_crops(rng, 2, "random")
        with pytest.raises(ValueError, match="disjoint views"):
            sample_views(rng, box1, box2, 2, SamplerConfig(s1=0.1))
