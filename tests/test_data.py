from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from asympatch.data import (AugmentParams, _luma, _sample_crop_rect,
                            _shift_hue, augment, augment_batch,
                            cifar_augment_params, identity_augment_params,
                            imagenet_augment_params, load_cifar,
                            synth_dataset, synth_manifest)
from asympatch.geometry import CropBox


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
        view, box = augment(rec, params, np.random.default_rng(0))
        assert np.array_equal(view, rec.pixels)
        assert (box.rect.x0, box.rect.y0, box.rect.x1, box.rect.y1) \
            == (0.0, 0.0, 16.0, 16.0)
        assert box.flip is False

    def test_forced_flip_mirrors_pixels(self):
        rec = synth_dataset(1, 1, 16, seed=3)[0]
        params = identity_augment_params(16)
        params = AugmentParams(**{**params.__dict__, "flip_prob": 1.0})
        view, box = augment(rec, params, np.random.default_rng(0))
        assert box.flip is True
        assert np.allclose(view, rec.pixels[:, ::-1, :])

    def test_grayscale_equalizes_channels(self):
        rec = synth_dataset(1, 1, 16, seed=4)[0]
        params = identity_augment_params(16)
        params = AugmentParams(**{**params.__dict__, "grayscale_prob": 1.0})
        view, _ = augment(rec, params, np.random.default_rng(0))
        assert np.allclose(view[..., 0], view[..., 1])
        assert np.allclose(view[..., 1], view[..., 2])

    def test_crop_box_inside_source(self):
        rec = synth_dataset(1, 1, 32, seed=5)[0]
        params = cifar_augment_params(32)
        rng = np.random.default_rng(6)
        for _ in range(50):
            _, box = augment(rec, params, rng)
            r = box.rect
            assert 0.0 <= r.x0 < r.x1 <= 32.0
            assert 0.0 <= r.y0 < r.y1 <= 32.0

    def test_color_ops_never_change_the_box(self):
        # the geometric draws precede the photometric ones, so two parameter
        # sets differing only in color settings produce identical boxes
        rec = synth_dataset(1, 1, 32, seed=7)[0]
        base = cifar_augment_params(32)
        no_color = AugmentParams(**{
            **base.__dict__, "jitter_prob": 0.0, "grayscale_prob": 0.0,
        })
        _, box_a = augment(rec, base, np.random.default_rng(11))
        _, box_b = augment(rec, no_color, np.random.default_rng(11))
        assert box_a.rect == box_b.rect
        assert box_a.flip == box_b.flip

    def test_determinism_under_seed(self):
        rec = synth_dataset(1, 1, 32, seed=8)[0]
        params = cifar_augment_params(32)
        va, ba = augment(rec, params, np.random.default_rng(5))
        vb, bb = augment(rec, params, np.random.default_rng(5))
        assert np.array_equal(va, vb)
        assert ba == bb

    def test_cifar_preset_values(self):
        p = cifar_augment_params()
        assert p.area_range == (0.15, 1.0)
        assert p.aspect_range == (0.75, 4.0 / 3.0)
        assert (p.flip_prob, p.jitter_prob, p.grayscale_prob) == (0.5, 0.8, 0.2)
        assert (p.brightness, p.contrast, p.saturation, p.hue) \
            == (0.4, 0.4, 0.4, 0.1)
        assert p.blur_prob == 0.0 and p.solarize_prob == 0.0

    def test_imagenet_presets_asymmetric(self):
        t1, t2 = imagenet_augment_params()
        assert t1.blur_prob == 1.0 and t2.blur_prob == 0.1
        assert t1.solarize_prob == 0.0 and t2.solarize_prob == 0.2
        assert t1.saturation == 0.2
        assert t1.area_range == (0.08, 1.0)

    def test_blur_and_solarize_paths_run(self):
        rec = synth_dataset(1, 1, 32, seed=9)[0]
        t1, t2 = imagenet_augment_params(view_size=32)
        rng = np.random.default_rng(12)
        view, _ = augment(rec, t1, rng)
        assert view.shape == (32, 32, 3)
        assert view.min() >= 0.0 and view.max() <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AugmentParams(view_size=16, area_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            AugmentParams(view_size=16, flip_prob=1.5)


# ---------------------------------------------------------------------------
# one-view reference: the plain per-image augmentation that augment_batch
# must reproduce bit for bit

def _resize_bilinear(src, rect, view_size, flip):
    h_img, w_img = src.shape[:2]
    sx = (rect.x1 - rect.x0) / view_size
    sy = (rect.y1 - rect.y0) / view_size
    u = np.arange(view_size) + 0.5
    if flip:
        xs = rect.x0 + (view_size - u) * sx
    else:
        xs = rect.x0 + u * sx
    ys = rect.y0 + u * sy
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


def _color_ops(view, params, rng):
    x = view
    if params.jitter_prob > 0.0:
        if rng.random() < params.jitter_prob and params.brightness > 0.0:
            f = rng.uniform(1.0 - params.brightness, 1.0 + params.brightness)
            x = np.clip(x * f, 0.0, 1.0)
        if rng.random() < params.jitter_prob and params.contrast > 0.0:
            f = rng.uniform(1.0 - params.contrast, 1.0 + params.contrast)
            mean = _luma(x).mean()
            x = np.clip((x - mean) * f + mean, 0.0, 1.0)
        if rng.random() < params.jitter_prob and params.saturation > 0.0:
            f = rng.uniform(1.0 - params.saturation, 1.0 + params.saturation)
            l = _luma(x)[..., None]
            x = np.clip((x - l) * f + l, 0.0, 1.0)
        if rng.random() < params.jitter_prob and params.hue > 0.0:
            shift = rng.uniform(-params.hue, params.hue)
            x = _shift_hue(x, shift)
    if params.grayscale_prob > 0.0 and rng.random() < params.grayscale_prob:
        x = np.repeat(_luma(x)[..., None], 3, axis=2)
    if params.blur_prob > 0.0 and rng.random() < params.blur_prob:
        sigma = rng.uniform(*params.blur_sigma)
        x = np.stack([ndimage.gaussian_filter(x[..., c], sigma)
                      for c in range(3)], axis=2)
        x = np.clip(x, 0.0, 1.0)
    if params.solarize_prob > 0.0 and rng.random() < params.solarize_prob:
        x = np.where(x >= params.solarize_threshold, 1.0 - x, x)
    return x


def reference_augment(record, params, rng):
    src = np.asarray(record.pixels, dtype=float)
    h_img, w_img = src.shape[:2]
    rect = _sample_crop_rect(w_img, h_img, params, rng)
    flip = bool(rng.random() < params.flip_prob)
    view = _resize_bilinear(src, rect, params.view_size, flip)
    view = _color_ops(view, params, rng)
    box = CropBox(rect=rect, flip=flip, view_size=params.view_size,
                  source_size=(float(w_img), float(h_img)))
    return view, box


def _every_gate_fires(view_size):
    t1, _ = imagenet_augment_params(view_size)
    return replace(t1, jitter_prob=1.0, grayscale_prob=1.0, blur_prob=1.0,
                   solarize_prob=1.0)


BATCH_PRESETS = {
    "cifar": cifar_augment_params(16),
    "cifar-down": cifar_augment_params(8),
    "imagenet-view1": imagenet_augment_params(16)[0],
    "imagenet-view2": imagenet_augment_params(16)[1],
    "every-gate": _every_gate_fires(16),
}


class TestAugmentBatch:
    @pytest.mark.parametrize("name", sorted(BATCH_PRESETS))
    def test_matches_one_view_reference_bit_for_bit(self, name):
        params = BATCH_PRESETS[name]
        records = synth_dataset(12, 2, 16, seed=13)
        rng_ref = np.random.default_rng(21)
        rng_batch = np.random.default_rng(21)
        rng_one = np.random.default_rng(21)
        ref = [reference_augment(r, params, rng_ref) for r in records]
        views, boxes = augment_batch(records, params, rng_batch)
        one = [augment(r, params, rng_one) for r in records]
        expect = np.stack([v for v, _ in ref])
        assert views.shape == expect.shape
        assert views.tobytes() == expect.tobytes()
        assert boxes == [b for _, b in ref]
        assert np.stack([v for v, _ in one]).tobytes() == expect.tobytes()
        assert [b for _, b in one] == boxes
        state = rng_ref.bit_generator.state
        assert rng_batch.bit_generator.state == state
        assert rng_one.bit_generator.state == state

    def test_binary_record_layout_matches_reference(self, tmp_path):
        # load_cifar pixels are plane-major in memory; the result must not
        # depend on the source layout
        rng = np.random.default_rng(3)
        path = tmp_path / "batch.bin"
        write_cifar(path, [(i % 10, *rng.integers(0, 256, (3, PLANE)).tolist())
                           for i in range(6)])
        records = load_cifar(path)
        params = _every_gate_fires(32)
        ref = [reference_augment(r, params, np.random.default_rng(i))
               for i, r in enumerate(records)]
        for i, r in enumerate(records):
            views, boxes = augment_batch([r], params, np.random.default_rng(i))
            assert views[0].tobytes() == ref[i][0].tobytes()
            assert boxes[0] == ref[i][1]

    def test_mixed_source_sizes_rejected(self):
        records = synth_dataset(1, 1, 16, seed=0) + synth_dataset(1, 1, 32, seed=0)
        with pytest.raises(ValueError):
            augment_batch(records, cifar_augment_params(16),
                          np.random.default_rng(0))
