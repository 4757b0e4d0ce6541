"""Shared helpers: finite-difference oracles and deterministic fixtures."""

import numpy as np
from hypothesis import settings

from asympatch.encoder import BACKBONES, HEADS, init_params

# property tests replay the same examples on every run: tier-1 stays
# deterministic and nothing is written to a local example database
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None, max_examples=200)
settings.load_profile("tier1")


def rel_err(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def sample_coords(rng, shape, k):
    """Up to k distinct flat coordinates of an array shape."""
    size = int(np.prod(shape))
    flat = rng.choice(size, size=min(k, size), replace=False)
    return [np.unravel_index(int(f), shape) for f in flat]


def fd_gradient(value_fn, params, name, coord, h=1e-5):
    """Central finite difference of value_fn with respect to one coordinate."""
    p = {k: v.copy() for k, v in params.items()}
    p[name][coord] += h
    up = value_fn(p)
    p[name][coord] -= 2 * h
    dn = value_fn(p)
    return (up - dn) / (2 * h)


def fd_directional(value_fn, params, name, direction, h=1e-5):
    """Richardson-extrapolated central difference along one tensor direction.

    The extrapolation cancels the h^2 truncation term, which matters here:
    batch norm over tiny batches makes third derivatives enormous.
    """
    def central(step):
        p = {k: v.copy() for k, v in params.items()}
        p[name] = params[name] + step * direction
        up = value_fn(p)
        p[name] = params[name] - step * direction
        dn = value_fn(p)
        return (up - dn) / (2 * step)

    return (4.0 * central(h / 2) - central(h)) / 3.0


def micro_model(seed=0):
    bb = BACKBONES["vit-micro"]
    hc = HEADS["micro"]
    params, bn = init_params(bb, hc, np.random.default_rng(seed))
    return bb, hc, params, bn


def micro_batch(seed=1, batch=2, ratio=0.25):
    bb = BACKBONES["vit-micro"]
    rng = np.random.default_rng(seed)
    pixels = rng.random((batch, bb.image_size, bb.image_size, 3))
    k = int(round(ratio * bb.n_patches))
    indices = np.stack([rng.choice(bb.n_patches, size=k, replace=False)
                        for _ in range(batch)])
    return pixels, indices
