"""Temperature-scaled, stop-gradient contrastive objective with exact
analytic gradients.

Embedding batches are plain (N, dim) float arrays: row i of ``q`` is the
prediction for sample i, row i of ``z`` its projection target. The loss for
one direction is the row-wise cross entropy of the cosine-similarity matrix
at temperature ``tau``, with the matching index as the positive; targets are
stop-gradiented, so the returned partials with respect to the ``z`` inputs
are exactly zero matrices (gradient still reaches the network that produced
``z`` wherever ``z`` also feeds a prediction branch — that path is the
caller's, not the loss's).

The whole two-direction loss is scaled by ``tau``, which keeps learning-rate
tuning comparable across temperatures. Softmax rows subtract their max
before exponentiation; at tau = 0.1 the logits reach magnitude 10 and
overflow must be impossible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LossResult:
    """Scalar loss plus partials with respect to each embedding input."""

    value: float
    grad_q1: np.ndarray
    grad_q2: np.ndarray
    grad_z1: np.ndarray
    grad_z2: np.ndarray


@dataclass(frozen=True)
class MultiviewLossResult:
    """Scalar loss plus per-view partials for the multi-view objective."""

    value: float
    grad_q: list
    grad_z: list


def _check_batch(name: str, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"{name} must be a 2-d (batch, dim) array")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ValueError(f"{name} has zero-norm rows at indices {bad.tolist()}")
    return x


def cosine_similarity_matrix(q: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Entry (i, j) is the cosine similarity of q[i] and z[j]."""
    q = _check_batch("q", q)
    z = _check_batch("z", z)
    if q.shape != z.shape:
        raise ValueError(f"shape mismatch: {q.shape} vs {z.shape}")
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    return qn @ zn.T


def _direction(q: np.ndarray, z: np.ndarray, tau: float):
    """One stop-gradient direction: value tau * D(q, sg(z)) and its q-grad.

    D(q, z) = -sum_i log softmax_j(sim(q_i, z_j) / tau)[i]; z is constant.
    """
    qnorm = np.linalg.norm(q, axis=1, keepdims=True)
    znorm = np.linalg.norm(z, axis=1, keepdims=True)
    qh = q / qnorm
    zh = z / znorm
    s = qh @ zh.T                                     # (N, N) cosine matrix
    logits = s / tau
    logits -= logits.max(axis=1, keepdims=True)       # overflow guard
    ex = np.exp(logits)
    p = ex / ex.sum(axis=1, keepdims=True)            # row-wise softmax
    n = q.shape[0]
    d_value = float(-(np.log(p[np.arange(n), np.arange(n)])).sum())
    # d(tau * D)/ds = P - I; chain through the cosine normalization of q
    g = p.copy()
    g[np.arange(n), np.arange(n)] -= 1.0
    grad_q = (g @ zh - (g * s).sum(axis=1, keepdims=True) * qh) / qnorm
    return tau * d_value, grad_q


def info_nce(q: np.ndarray, z: np.ndarray, tau: float) -> float:
    """Row-wise cross entropy D(q, z) with matching indices as positives."""
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    q = _check_batch("q", q)
    z = _check_batch("z", z)
    if q.shape != z.shape:
        raise ValueError(f"shape mismatch: {q.shape} vs {z.shape}")
    value, _ = _direction(q, z, tau)
    return value / tau


def contrastive_loss(q1: np.ndarray, z1: np.ndarray, q2: np.ndarray,
                     z2: np.ndarray, tau: float) -> LossResult:
    """Two-view objective tau * [D(q1, sg(z2)) + D(q2, sg(z1))]: twice the
    two-view :func:`multiview_loss`, which halves each term; halving and
    doubling are exact in floating point."""
    res = multiview_loss([(q1, z1), (q2, z2)], tau)
    return LossResult(value=2.0 * res.value, grad_q1=2.0 * res.grad_q[0],
                      grad_q2=2.0 * res.grad_q[1], grad_z1=res.grad_z[0],
                      grad_z2=res.grad_z[1])


def multiview_loss(pairs, tau: float, ordered_pairs=None) -> MultiviewLossResult:
    """Mean of tau * D(q_j, sg(z_k)) over ordered view pairs j != k: the
    one definition of the objective, which training runs.

    ``pairs`` is a list of (q, z) arrays, one per view. By default every
    ordered pair participates; callers may restrict to a subset (for
    example, cross-crop pairs only) via ``ordered_pairs``. Dividing by the
    pair count keeps gradient magnitudes comparable across view counts. The
    returned partials with respect to each ``z`` are exact zero matrices;
    :func:`contrastive_loss` is twice the two-view case.
    """
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if len(pairs) < 2:
        raise ValueError("multiview loss needs at least 2 views")
    qs = [_check_batch(f"q{v}", q) for v, (q, _) in enumerate(pairs)]
    zs = [_check_batch(f"z{v}", z) for v, (_, z) in enumerate(pairs)]
    shape = qs[0].shape
    if any(q.shape != shape for q in qs) or any(z.shape != shape for z in zs):
        raise ValueError("all views must share one embedding shape")
    n_views = len(pairs)
    if ordered_pairs is None:
        ordered_pairs = [(j, k) for j in range(n_views) for k in range(n_views)
                         if j != k]
    else:
        ordered_pairs = list(ordered_pairs)
        if not ordered_pairs:
            raise ValueError("ordered_pairs must not be empty")
        if any(j == k or not (0 <= j < n_views and 0 <= k < n_views)
               for j, k in ordered_pairs):
            raise ValueError("ordered_pairs entries must be distinct view indices")
    n_ordered = len(ordered_pairs)
    value = 0.0
    grad_q = [np.zeros(shape) for _ in range(n_views)]
    for j, k in ordered_pairs:
        v, g = _direction(qs[j], zs[k], tau)
        value += v / n_ordered
        grad_q[j] += g / n_ordered
    return MultiviewLossResult(
        value=value,
        grad_q=grad_q,
        grad_z=[np.zeros(shape) for _ in range(n_views)],
    )
