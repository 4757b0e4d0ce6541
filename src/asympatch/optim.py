"""Training-side numerics: adaptive gradient clipping against an EMA of past
gradients, decoupled-weight-decay adaptive moments, cosine learning-rate
warmup/decay, and the momentum-encoder coefficient schedule.

The clip keeps a per-parameter-group exponential moving average of the raw
gradient vector (not of its norm: the norm of the EMA is what the trigger
compares against, and it is not the EMA of norms). A step's gradient is
rescaled only when its norm exceeds ``alpha`` times the norm of the previous
EMA; untriggered gradients pass through bitwise unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ClipState:
    """Per-group EMA of gradients used as the adaptive clip threshold."""

    m: float = 0.4
    alpha: float = 1.05
    epsilon: float = 1e-8
    ema_grad: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.m < 1.0:
            raise ValueError(f"momentum m must lie in [0, 1), got {self.m}")
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")


def clip_update(state: ClipState, g: np.ndarray) -> np.ndarray:
    """Adaptively clip one flattened gradient vector and advance the EMA.

    First call seeds the EMA with the gradient itself and returns it
    unclipped (there is no meaningful threshold yet). Afterwards, when
    ``||g|| > alpha * ||ema||`` the gradient is rescaled to
    ``g * ||ema|| / (||g|| + epsilon)``; the EMA update always consumes the
    raw, unclipped gradient so it keeps tracking the true gradient scale.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 1:
        raise ValueError("clip_update expects a flattened gradient vector")
    if state.ema_grad is None:
        state.ema_grad = g.copy()
        return g
    if g.shape != state.ema_grad.shape:
        raise ValueError(
            f"gradient shape {g.shape} does not match state {state.ema_grad.shape}"
        )
    ema_norm = float(np.linalg.norm(state.ema_grad))
    g_norm = float(np.linalg.norm(g))
    out = g
    triggered = g_norm > state.alpha * ema_norm
    if triggered:
        out = g * (ema_norm / (g_norm + state.epsilon))
    state.ema_grad = state.m * state.ema_grad + (1.0 - state.m) * g
    return out


@dataclass
class AdamWState:
    """First/second moment accumulators and step counter, keyed like params."""

    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.05
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(state: AdamWState, params: dict, grads: dict, lr: float) -> dict:
    """One decoupled-weight-decay adaptive update, in place on ``params``.

    Weight decay is applied multiplicatively (``p *= 1 - lr * wd``) before
    the moment update touches the parameter, so decay and adaptation stay
    decoupled. Raises on non-finite gradients instead of corrupting state.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    beta1, beta2 = state.betas
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient/param shape mismatch for {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        if state.weight_decay:
            p *= 1.0 - lr * state.weight_decay
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params


def cosine_lr(step: int, warmup_steps: int, total_steps: int, base_lr: float) -> float:
    """Linear warmup from 0 to base_lr, then half-cosine decay to 0."""
    if warmup_steps > total_steps:
        raise ValueError("warmup_steps cannot exceed total_steps")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    if total_steps == warmup_steps:
        return base_lr
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * progress))


@dataclass(frozen=True)
class EmaSchedule:
    """Cosine ramp of the momentum-encoder coefficient, 0.99 -> 1.0."""

    start: float = 0.99
    end: float = 1.0
    total_steps: int = 1

    def __post_init__(self):
        if not self.start <= self.end:
            raise ValueError("schedule must be non-decreasing")
        if self.total_steps < 1:
            raise ValueError("total_steps must be positive")

    def coefficient(self, step: int) -> float:
        s = min(max(step, 0), self.total_steps)
        cosine = 0.5 * (1.0 + math.cos(math.pi * s / self.total_steps))
        return self.end - (self.end - self.start) * cosine


def momentum_encoder_update(online: dict, target: dict, coeff: float) -> dict:
    """target <- coeff * target + (1 - coeff) * online, array by array."""
    if not 0.0 <= coeff <= 1.0:
        raise ValueError(f"coefficient must lie in [0, 1], got {coeff}")
    for name, p in online.items():
        t = target[name]
        if t.shape != p.shape:
            raise ValueError(f"shape mismatch for {name!r}")
        t *= coeff
        t += (1.0 - coeff) * p
    return target
