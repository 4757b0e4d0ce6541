import colorsys
from dataclasses import replace

import numpy as np
import pytest

from asympatch.data import (AugmentParams, _hsv_to_rgb, _luma, _rgb_to_hsv,
                            _shift_hue, augment_batch, cifar_augment_params, draw_views,
                            identity_augment_params, load_cifar,
                            render_views, synth_dataset, synth_manifest)
from asympatch.sampling import random_crops


def write_cifar(path, records):
    """records: list of (label, r_plane, g_plane, b_plane) byte arrays."""
    with open(path, "wb") as fh:
        for label, r, g, b in records:
            fh.write(bytes([label]) + bytes(r) + bytes(g) + bytes(b))


PLANE = 1024


class TestLoadCifar:
    def test_single_record(self, tmp_path):
        path = tmp_path / "batch.bin"
        write_cifar(path, [(0, [0] * PLANE, [0] * PLANE, [0] * PLANE)])
        records = load_cifar(path)
        assert len(records) == 1
        assert records[0].label == 0
        assert not records[0].pixels.any()        # all-zero record: black
        assert records[0].pixels.shape == (32, 32, 3)

    def test_red_plane_saturated(self, tmp_path):
        path = tmp_path / "batch.bin"
        write_cifar(path, [(3, [255] * PLANE, [0] * PLANE, [0] * PLANE)])
        rec = load_cifar(path)[0]
        assert rec.label == 3
        assert np.allclose(rec.pixels[..., 0], 1.0)
        assert not rec.pixels[..., 1:].any()

    def test_plane_order_is_row_major(self, tmp_path):
        # first green byte belongs to pixel (0, 0)
        g = [0] * PLANE
        g[0] = 255
        path = tmp_path / "batch.bin"
        write_cifar(path, [(1, [0] * PLANE, g, [0] * PLANE)])
        rec = load_cifar(path)[0]
        assert rec.pixels[0, 0, 1] == 1.0
        assert rec.pixels.sum() == 1.0

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 3072)
        with pytest.raises(ValueError, match="3073"):
            load_cifar(path)

    def test_label_out_of_range_reported(self, tmp_path):
        path = tmp_path / "bad.bin"
        write_cifar(path, [(12, [0] * PLANE, [0] * PLANE, [0] * PLANE)])
        with pytest.raises(ValueError, match="label 12"):
            load_cifar(path)


class TestSynthDataset:
    def test_deterministic(self):
        a = synth_dataset(4, 2, 16, seed=9)
        b = synth_dataset(4, 2, 16, seed=9)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.pixels, rb.pixels)
            assert ra.label == rb.label

    def test_pixel_range_and_shape(self):
        for rec in synth_dataset(2, 3, 16, seed=0):
            assert rec.pixels.shape == (16, 16, 3)
            assert rec.pixels.min() >= 0.0 and rec.pixels.max() <= 1.0

    def test_nearest_centroid_separability(self):
        # pixel-mean classifier must beat chance on two classes
        records = synth_dataset(40, 2, 16, seed=1)
        feats = np.stack([r.pixels.mean(axis=(0, 1)) for r in records])
        labels = np.array([r.label for r in records])
        train = np.arange(0, len(records), 2)
        test = np.arange(1, len(records), 2)
        cents = np.stack([feats[train][labels[train] == c].mean(axis=0)
                          for c in (0, 1)])
        pred = np.linalg.norm(feats[test][:, None, :] - cents[None], axis=2
                              ).argmin(axis=1)
        acc = (pred == labels[test]).mean()
        assert acc > 0.9

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            synth_dataset(0, 2, 16, seed=0)

    def test_manifest(self):
        text = synth_manifest(8, 2, 16, seed=3)
        assert "seed=3" in text and "classes=2" in text


class TestAugment:
    def test_identity_configuration_exact(self):
        rec = synth_dataset(1, 1, 16, seed=2)[0]
        params = identity_augment_params(view_size=16)
        views, box, flip = augment_batch([rec], params,
                                         np.random.default_rng(0))
        assert np.array_equal(views[0], rec.pixels)
        assert box[:, 0].tolist() == [0.0, 0.0, 16.0, 16.0]   # x0, y0, w, h
        assert flip.tolist() == [False]

    def test_forced_flip_mirrors_pixels(self):
        rec = synth_dataset(1, 1, 16, seed=3)[0]
        params = identity_augment_params(16)
        params = AugmentParams(**{**params.__dict__, "flip_prob": 1.0})
        views, _, flip = augment_batch([rec], params, np.random.default_rng(0))
        assert flip.tolist() == [True]
        assert np.allclose(views[0], rec.pixels[:, ::-1, :])

    def test_grayscale_equalizes_channels(self):
        rec = synth_dataset(1, 1, 16, seed=4)[0]
        params = identity_augment_params(16)
        params = AugmentParams(**{**params.__dict__, "grayscale_prob": 1.0})
        (view,), _, _ = augment_batch([rec], params, np.random.default_rng(0))
        assert np.allclose(view[..., 0], view[..., 1])
        assert np.allclose(view[..., 1], view[..., 2])

    def test_crop_box_inside_source(self):
        rec = synth_dataset(1, 1, 32, seed=5)[0]
        params = cifar_augment_params(32)
        rng = np.random.default_rng(6)
        for _ in range(50):
            _, box, _ = augment_batch([rec], params, rng)
            x0, y0, w, h = box[:, 0]
            assert 0.0 <= x0 < x0 + w <= 32.0
            assert 0.0 <= y0 < y0 + h <= 32.0

    def test_color_ops_never_change_the_box(self):
        # the geometric draws precede the photometric ones, so two parameter
        # sets differing only in color settings produce identical boxes
        rec = synth_dataset(1, 1, 32, seed=7)[0]
        base = cifar_augment_params(32)
        no_color = AugmentParams(**{
            **base.__dict__, "jitter_prob": 0.0, "grayscale_prob": 0.0,
        })
        _, box_a, flip_a = augment_batch([rec], base, np.random.default_rng(11))
        _, box_b, flip_b = augment_batch([rec], no_color,
                                         np.random.default_rng(11))
        assert box_a.tobytes() == box_b.tobytes()
        assert np.array_equal(flip_a, flip_b)

    def test_determinism_under_seed(self):
        rec = synth_dataset(1, 1, 32, seed=8)[0]
        params = cifar_augment_params(32)
        va, ba, fa = augment_batch([rec], params, np.random.default_rng(5))
        vb, bb, fb = augment_batch([rec], params, np.random.default_rng(5))
        assert np.array_equal(va, vb)
        assert np.array_equal(ba, bb) and np.array_equal(fa, fb)

    def test_cifar_preset_values(self):
        p = cifar_augment_params()
        assert p.area_range == (0.15, 1.0)
        assert p.aspect_range == (0.75, 4.0 / 3.0)
        assert (p.flip_prob, p.jitter_prob, p.grayscale_prob) == (0.5, 0.8, 0.2)
        assert (p.brightness, p.contrast, p.saturation, p.hue) \
            == (0.4, 0.4, 0.4, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            AugmentParams(view_size=16, area_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            AugmentParams(view_size=16, flip_prob=1.5)


# ---------------------------------------------------------------------------
# per-view reference: the draws written out op by op and view by view, and
# the plain one-image pixel maths that augment_batch must reproduce bit for
# bit

def wide_area_params(view_size):
    """A preset off the CIFAR defaults: a wider area range and a 0.2
    saturation cap."""
    return AugmentParams(view_size=view_size, area_range=(0.08, 1.0),
                         saturation=0.2)


def reference_crops(rng, n, width, height, params):
    lo, hi = params.area_range
    alo, ahi = params.aspect_range
    size = [None] * n
    for _ in range(10):
        need = [i for i in range(n) if size[i] is None]
        if not need:
            break
        area = rng.uniform(lo, hi, len(need)) * width * height
        ar = np.exp(rng.uniform(np.log(alo), np.log(ahi), len(need)))
        for i, a, r in zip(need, area, ar):
            w, h = np.sqrt(a * r), np.sqrt(a / r)
            if w <= width and h <= height:
                size[i] = (w, h)
    ux, uy = rng.random(n), rng.random(n)
    boxes = []
    for i in range(n):
        if size[i] is None:
            w = min(float(width), np.sqrt(hi * width * height))
            h = min(float(height), w)
            boxes.append(((width - w) / 2.0, (height - h) / 2.0, w, h))
        else:
            w, h = size[i]
            boxes.append((ux[i] * (width - w), uy[i] * (height - h), w, h))
    return np.array(boxes).T


def reference_color_draws(params, n, rng):
    """Per view: op -> factor (None for grayscale) of each fired op."""
    laws = []
    for op in ("brightness", "contrast", "saturation", "hue"):
        amount = getattr(params, op)
        centre = 0.0 if op == "hue" else 1.0
        if params.jitter_prob > 0.0 and amount > 0.0:
            laws.append((op, params.jitter_prob,
                         (centre - amount, centre + amount)))
    laws.append(("grayscale", params.grayscale_prob, None))
    views = [{} for _ in range(n)]
    for op, prob, span in laws:
        if prob > 0.0:
            gate = rng.random(n) < prob
            factor = rng.uniform(*span, n) if span else [None] * n
            for i in np.flatnonzero(gate):
                views[i][op] = factor[i]
    return views


def _resize_bilinear(src, box, view_size, flip):
    h_img, w_img = src.shape[:2]
    x0, y0, w, h = box
    sx = w / view_size
    sy = h / view_size
    u = np.arange(view_size) + 0.5
    if flip:
        xs = x0 + (view_size - u) * sx
    else:
        xs = x0 + u * sx
    ys = y0 + u * sy
    xi = np.clip(xs - 0.5, 0.0, w_img - 1.0)
    yi = np.clip(ys - 0.5, 0.0, h_img - 1.0)
    x0 = np.floor(xi).astype(int)
    y0 = np.floor(yi).astype(int)
    x1 = np.minimum(x0 + 1, w_img - 1)
    y1 = np.minimum(y0 + 1, h_img - 1)
    fx = (xi - x0)[None, :, None]
    fy = (yi - y0)[:, None, None]
    top = src[y0][:, x0] * (1.0 - fx) + src[y0][:, x1] * fx
    bot = src[y1][:, x0] * (1.0 - fx) + src[y1][:, x1] * fx
    return top * (1.0 - fy) + bot * fy


def _color_ops(view, draws):
    x = view
    if "brightness" in draws:
        x = np.clip(x * draws["brightness"], 0.0, 1.0)
    if "contrast" in draws:
        mean = _luma(x).mean()
        x = np.clip((x - mean) * draws["contrast"] + mean, 0.0, 1.0)
    if "saturation" in draws:
        l = _luma(x)[..., None]
        x = np.clip((x - l) * draws["saturation"] + l, 0.0, 1.0)
    if "hue" in draws:
        x = _shift_hue(x, draws["hue"])
    if "grayscale" in draws:
        x = np.repeat(_luma(x)[..., None], 3, axis=2)
    return x


def reference_augment_batch(records, params, rng):
    src = [np.asarray(r.pixels, dtype=float) for r in records]
    n = len(src)
    h_img, w_img = src[0].shape[:2]
    box = reference_crops(rng, n, w_img, h_img, params)
    flip = rng.random(n) < params.flip_prob
    draws = reference_color_draws(params, n, rng)
    views = np.stack([
        _color_ops(_resize_bilinear(s, box[:, i], params.view_size, flip[i]),
                   draws[i])
        for i, s in enumerate(src)])
    return views, box, flip


def _every_gate_fires(view_size):
    return replace(wide_area_params(view_size), jitter_prob=1.0,
                   grayscale_prob=1.0)


BATCH_PRESETS = {
    "cifar": cifar_augment_params(16),
    "cifar-down": cifar_augment_params(8),
    "wide-area": wide_area_params(16),
    "every-gate": _every_gate_fires(16),
}


class TestAugmentBatch:
    @pytest.mark.parametrize("name", sorted(BATCH_PRESETS))
    def test_matches_one_view_reference_bit_for_bit(self, name):
        params = BATCH_PRESETS[name]
        records = synth_dataset(12, 2, 16, seed=13)
        rng_ref = np.random.default_rng(21)
        rng_batch = np.random.default_rng(21)
        expect, box_ref, flip_ref = reference_augment_batch(records, params,
                                                            rng_ref)
        views, box, flip = augment_batch(records, params, rng_batch)
        assert views.shape == expect.shape
        assert views.tobytes() == expect.tobytes()
        assert box.tobytes() == box_ref.tobytes()
        assert np.array_equal(flip, flip_ref)
        assert rng_batch.bit_generator.state == rng_ref.bit_generator.state

    def test_binary_record_layout_matches_reference(self, tmp_path):
        # load_cifar pixels are plane-major in memory; the result must not
        # depend on the source layout
        rng = np.random.default_rng(3)
        path = tmp_path / "batch.bin"
        write_cifar(path, [(i % 10, *rng.integers(0, 256, (3, PLANE)).tolist())
                           for i in range(6)])
        records = load_cifar(path)
        params = _every_gate_fires(32)
        expect, box_ref, _ = reference_augment_batch(
            records, params, np.random.default_rng(5))
        views, box, _ = augment_batch(records, params, np.random.default_rng(5))
        assert views.tobytes() == expect.tobytes()
        assert box.tobytes() == box_ref.tobytes()

    def test_mixed_source_sizes_rejected(self):
        records = synth_dataset(1, 1, 16, seed=0) + synth_dataset(1, 1, 32, seed=0)
        with pytest.raises(ValueError):
            augment_batch(records, cifar_augment_params(16),
                          np.random.default_rng(0))


class TestRenderViews:
    @pytest.mark.parametrize("name", ["cifar", "every-gate"])
    def test_any_subset_renders_the_rows_of_the_whole(self, name):
        # a crop of a training step is one slice of the step's draws, and the
        # process that encodes it renders that slice alone
        params = BATCH_PRESETS[name]
        src = np.stack([r.pixels for r in synth_dataset(12, 2, 16, seed=13)])
        draws = draw_views(len(src), 16, 16, params,
                           np.random.default_rng(21))
        whole = render_views(src, draws)
        rng = np.random.default_rng(4)
        subsets = [slice(12), slice(12, None), slice(5, 6),
                   np.array([23, 0, 7])]
        subsets += [rng.choice(len(src), size, replace=False)
                    for size in (1, 2, 5, 11, 17)]
        for rows in subsets:
            part = render_views(src[rows], draws.take(rows))
            assert part.tobytes() == whole[rows].tobytes()
        if name == "every-gate":
            assert all(gates.all() for _, gates, _ in draws.ops)


class TestHsv:
    def test_matches_colorsys(self):
        # quarter steps make ties between channels common: the hue sector of
        # a tied maximum follows red, then green, then blue
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.random((300, 3)),
                            np.round(rng.random((300, 3)) * 4) / 4])
        h, s, v = _rgb_to_hsv(x)
        expect = np.array([colorsys.rgb_to_hsv(*p) for p in x])
        assert np.stack([h, s, v], axis=1) == pytest.approx(expect, abs=1e-12)
        shifted = (h + 0.37) % 1.0
        back = np.array([colorsys.hsv_to_rgb(*p)
                         for p in zip(shifted, s, v)])
        assert _hsv_to_rgb(shifted, s, v) == pytest.approx(back, abs=1e-12)


class TestRandomCrops:
    @pytest.mark.parametrize("width,height", [(16, 16), (24, 10), (7, 31)])
    def test_matches_reference_and_fits_the_source(self, width, height):
        params = cifar_augment_params(8)
        rng_ref = np.random.default_rng(2)
        rng = np.random.default_rng(2)
        expect = reference_crops(rng_ref, 500, width, height, params)
        box = random_crops(rng, 500, width, height, params.area_range,
                           params.aspect_range)
        assert box.tobytes() == expect.tobytes()
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        x0, y0, w, h = box
        assert np.all(x0 >= 0.0) and np.all(x0 + w <= width + 1e-9)
        assert np.all(y0 >= 0.0) and np.all(y0 + h <= height + 1e-9)
        area = w * h / (width * height)
        assert np.all(area >= 0.15 - 1e-12) and np.all(area <= 1.0 + 1e-12)

    def test_fallback_is_the_centred_largest_crop(self):
        # a 2:1 aspect never fits at full area: every round is rejected
        rng = np.random.default_rng(0)
        box = random_crops(rng, 3, 12.0, 12.0, (1.0, 1.0), (2.0, 2.0))
        assert box.T.tolist() == [[0.0, 0.0, 12.0, 12.0]] * 3
        params = AugmentParams(view_size=4, area_range=(1.0, 1.0),
                               aspect_range=(2.0, 2.0))
        ref = np.random.default_rng(0)
        reference_crops(ref, 3, 12.0, 12.0, params)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_fallback_on_a_wide_source(self):
        rng = np.random.default_rng(1)
        box = random_crops(rng, 2, 20.0, 5.0, (0.5, 0.5), (9.0, 9.0))
        w = np.sqrt(0.5 * 100.0)
        assert box[:, 0].tolist() == [(20.0 - w) / 2.0, 0.0, w, 5.0]
