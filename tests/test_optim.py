import math

import numpy as np
import pytest

from asympatch.optim import (AdamWState, ClipState, EmaSchedule, adamw_step,
                             clip_update, cosine_lr, momentum_encoder_update)


def reference_adamw_scalar(p, g, lr, beta1, beta2, eps, wd, steps):
    """Independent scalar trace of the decoupled weight-decay update."""
    m = v = 0.0
    for t in range(1, steps + 1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p = p * (1 - lr * wd)
        p = p - lr * mhat / (math.sqrt(vhat) + eps)
    return p


class TestClip:
    def test_first_call_seeds_and_passes_through(self):
        state = ClipState(m=0.4, alpha=1.05)
        g = np.array([3.0, 4.0])
        out = clip_update(state, g)
        assert out is g
        assert np.array_equal(state.ema_grad, g)

    def test_untriggered_passthrough_bitwise(self):
        state = ClipState(m=0.4, alpha=1.05,
                          ema_grad=np.array([1.0, 0.0, 0.0]))
        g = np.array([0.3, 0.4, 0.5])          # norm ~0.707 < 1.05
        out = clip_update(state, g)
        assert out is g

    def test_triggered_rescales_to_ema_norm(self):
        ema = np.array([1.0, 0.0])
        state = ClipState(m=0.4, alpha=1.05, ema_grad=ema.copy())
        g = np.array([10.0, 0.0])
        out = clip_update(state, g)
        target = np.linalg.norm(ema)
        assert np.linalg.norm(out) == pytest.approx(target, rel=1e-6)
        # Eq-10 algebra: |out| = |ema| * |g| / (|g| + eps)
        assert np.linalg.norm(out) == pytest.approx(
            target * 10.0 / (10.0 + state.epsilon), rel=1e-12)

    def test_ema_consumes_raw_gradient(self):
        ema = np.array([1.0, 0.0])
        state = ClipState(m=0.5, alpha=1.05, ema_grad=ema.copy())
        g = np.array([10.0, 0.0])
        clip_update(state, g)
        assert np.allclose(state.ema_grad, 0.5 * ema + 0.5 * g)

    def test_constant_stream_closed_form(self):
        # after t steps of constant g: ema = m^t * ema0 + (1 - m^t) * g
        m = 0.4
        ema0 = np.array([0.2, -0.1, 0.05])
        g = np.array([1.0, 2.0, -0.5])
        state = ClipState(m=m, alpha=1e9, ema_grad=ema0.copy())
        for t in range(1, 11):
            clip_update(state, g)
            closed = (m ** t) * ema0 + (1 - m ** t) * g
            assert np.max(np.abs(state.ema_grad - closed)) < 1e-12

    def test_no_trigger_for_constant_stream(self):
        state = ClipState(m=0.4, alpha=1.05)
        g = np.array([2.0, 1.0])
        for _ in range(20):
            out = clip_update(state, g)
            assert out is g

    def test_output_norm_bounded(self):
        rng = np.random.default_rng(0)
        state = ClipState(m=0.4, alpha=1.05)
        for _ in range(50):
            g = rng.normal(size=8) * rng.uniform(0.1, 10.0)
            prev = None if state.ema_grad is None \
                else float(np.linalg.norm(state.ema_grad))
            out = clip_update(state, g)
            bound = float(np.linalg.norm(g))
            if prev is not None:
                bound = max(bound, prev)
            assert np.linalg.norm(out) <= bound + 1e-9

    def test_shape_mismatch_rejected(self):
        state = ClipState(ema_grad=np.zeros(3))
        with pytest.raises(ValueError):
            clip_update(state, np.zeros(4))

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            ClipState(m=1.0)
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha must be finite"):
                ClipState(alpha=alpha)


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        state = AdamWState(weight_decay=0.0)
        params = {"w": np.array([1.0, -2.0])}
        before = params["w"].copy()
        adamw_step(state, params, {"w": np.zeros(2)}, lr=1e-3)
        assert np.array_equal(params["w"], before)

    def test_single_parameter_hand_trace(self):
        state = AdamWState(betas=(0.9, 0.999), weight_decay=0.0, eps=1e-8)
        params = {"w": np.array([1.0])}
        adamw_step(state, params, {"w": np.array([0.5])}, lr=1e-3)
        # one step from zero moments: mhat = g, vhat = g^2
        expected = 1.0 - 1e-3 * 0.5 / (math.sqrt(0.25) + 1e-8)
        assert params["w"][0] == pytest.approx(expected, rel=1e-12)

    def test_decay_only_scales_parameters(self):
        state = AdamWState(weight_decay=0.05)
        params = {"w": np.array([2.0, -4.0])}
        adamw_step(state, params, {"w": np.zeros(2)}, lr=1e-3)
        assert np.allclose(params["w"], np.array([2.0, -4.0]) * (1 - 1e-3 * 0.05),
                           rtol=1e-15)

    def test_matches_reference_scalar_trace(self):
        state = AdamWState(betas=(0.9, 0.999), weight_decay=0.05, eps=1e-8)
        params = {"w": np.array([1.5])}
        for _ in range(7):
            adamw_step(state, params, {"w": np.array([0.3])}, lr=2e-3)
        ref = reference_adamw_scalar(1.5, 0.3, 2e-3, 0.9, 0.999, 1e-8, 0.05, 7)
        assert params["w"][0] == pytest.approx(ref, abs=1e-12)

    def test_deterministic(self):
        def run():
            state = AdamWState()
            params = {"w": np.linspace(-1, 1, 5)}
            for t in range(3):
                adamw_step(state, params, {"w": np.sin(params["w"] + t)}, 1e-3)
            return params["w"]
        assert np.array_equal(run(), run())

    def test_non_finite_gradient_aborts(self):
        state = AdamWState()
        params = {"w": np.ones(2)}
        before = params["w"].copy()
        with pytest.raises(FloatingPointError, match="w"):
            adamw_step(state, params, {"w": np.array([np.nan, 0.0])}, 1e-3)
        assert np.array_equal(params["w"], before)


class TestCosineLr:
    def test_warmup_endpoints(self):
        assert cosine_lr(0, 10, 100, 1e-3) == 0.0
        assert cosine_lr(10, 10, 100, 1e-3) == pytest.approx(1e-3)

    def test_decay_midpoint(self):
        assert cosine_lr(55, 10, 100, 1e-3) == pytest.approx(5e-4)

    def test_final_step_zero(self):
        assert cosine_lr(100, 10, 100, 1e-3) == pytest.approx(0.0, abs=1e-18)

    def test_monotone_after_warmup(self):
        vals = [cosine_lr(s, 10, 100, 1e-3) for s in range(10, 101)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_warmup_longer_than_total_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 200, 100, 1e-3)
        with pytest.raises(ValueError):
            cosine_lr(101, 10, 100, 1e-3)


class TestEmaSchedule:
    def test_endpoints(self):
        s = EmaSchedule(0.99, 1.0, total_steps=50)
        assert s.coefficient(0) == pytest.approx(0.99)
        assert s.coefficient(50) == pytest.approx(1.0)

    def test_monotone_non_decreasing(self):
        s = EmaSchedule(0.99, 1.0, total_steps=200)
        vals = [s.coefficient(t) for t in range(201)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_momentum_update_examples(self):
        online = {"w": np.array([1.0])}
        target = {"w": np.array([0.0])}
        momentum_encoder_update(online, target, 1.0)
        assert target["w"][0] == 0.0
        momentum_encoder_update(online, target, 0.0)
        assert target["w"][0] == 1.0
        target = {"w": np.array([0.0])}
        momentum_encoder_update(online, target, 0.99)
        assert target["w"][0] == pytest.approx(0.01)

    def test_momentum_update_validation(self):
        with pytest.raises(ValueError):
            momentum_encoder_update({"w": np.ones(2)}, {"w": np.ones(3)}, 0.5)
        with pytest.raises(ValueError):
            momentum_encoder_update({"w": np.ones(2)}, {"w": np.ones(2)}, 1.5)
