"""Analytic and Monte Carlo quantification of positive-pair spatial asymmetry.

The closed forms:

* naive expectation ``s1 * s2`` — both views sample the same crop uniformly,
  so each grid patch is jointly kept with probability ``s1 * s2``;
* selective expectation ``s1 * s2 / (gamma + 2)`` — the idealized
  continuous-overlap model of the selective density
  ``p(r) = (gamma + 1) * s1 * (1 - r)**gamma``;
* the normalization identity: the density integrates to ``s1`` over
  ``r in [0, 1]`` for every ``gamma >= 0``.

The Monte Carlo estimator simulates the actual pipeline (identical crops or
the trainer's random crops, uniform view-1 sampling, weighted view-2
sampling without replacement) and reports the mean pair overlap
``sum_i r_i / N`` over view-2's sampled patches: the fraction of the view-2
crop covered by both sampled views. Under identical crops this makes the
naive estimator an exact, unbiased probe of ``s1 * s2``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import pool, sampling

CROP_MODELS = ("identical", "random")

_SIDE = 32.0  # simulated source image side; the profile is scale-invariant
# cells per row tile of the Monte Carlo kernel: 64 rows at grid 32, so each
# float64 work array is 0.5 MB and the few one operation touches fit a 2 MB
# L2 cache (larger and smaller tiles measured slower); the tile height never
# moves a value
_TILE_CELLS = 65_536


def expected_overlap_naive(s1: float, s2: float) -> float:
    """Expected pair overlap when both views sample one crop uniformly."""
    sampling._check_ratio("s1", s1)
    sampling._check_ratio("s2", s2)
    return s1 * s2


def expected_overlap_selective(s1: float, s2: float, gamma: float) -> float:
    """Expected pair overlap of the selective strategy, continuous-r model."""
    sampling._check_ratio("s1", s1)
    sampling._check_ratio("s2", s2)
    sampling._check_gamma(gamma)
    return s1 * s2 / (gamma + 2.0)


def selective_density(r, gamma: float, s1: float):
    """Selective sampling density (gamma + 1) * s1 * (1 - r)**gamma."""
    sampling._check_gamma(gamma)
    return (gamma + 1.0) * s1 * np.power(1.0 - np.asarray(r, dtype=float), gamma)


def pdf_normalization(gamma: float, s1: float) -> float:
    """Numeric integral of the selective density over r in [0, 1].

    Adaptive quadrature, deliberately not reusing the closed form it is meant
    to verify; the result must equal ``s1``.
    """
    sampling._check_gamma(gamma)
    sampling._check_ratio("s1", s1)
    # imported here: no CLI or benchmark path integrates, and scipy.integrate
    # (with the special, optimize and linalg it pulls in) costs ~0.6-0.7 s and
    # ~52 MB
    from scipy import integrate
    value, _ = integrate.quad(selective_density, 0.0, 1.0, args=(gamma, s1))
    return float(value)


@dataclass(frozen=True)
class AsymmetryReport:
    """One strategy's analytic expectation next to its Monte Carlo estimate."""

    strategy: str
    crop_model: str
    analytic: float
    estimate: float
    std_error: float
    trials: int
    s1: float
    s2: float
    gamma: float
    grid_size: int

    def __post_init__(self):
        if not 0.0 <= self.analytic <= self.s1 * self.s2 + 1e-12:
            raise ValueError("analytic expectation must lie in [0, s1*s2]")

    @property
    def non_overlap_estimate(self) -> float:
        return 1.0 - self.estimate

    @property
    def non_overlap_analytic(self) -> float:
        return 1.0 - self.analytic

    def csv_row(self) -> str:
        return ",".join([
            self.strategy, self.crop_model, repr(self.s1), repr(self.s2),
            repr(self.gamma), str(self.grid_size), str(self.trials),
            repr(self.analytic), repr(self.estimate), repr(self.std_error),
        ])


CSV_HEADER = ("strategy,crop_model,s1,s2,gamma,grid,trials,"
              "analytic,estimate,std_error")


def reports_to_csv(reports) -> str:
    lines = [CSV_HEADER] + [r.csv_row() for r in reports]
    return "\n".join(lines) + "\n"


def reports_to_table(reports) -> str:
    """Plain-text comparison table, one row per configuration."""
    buf = io.StringIO()
    cols = ("strategy", "crops", "s1", "s2", "gamma", "grid",
            "trials", "analytic", "estimate", "stderr")
    buf.write("{:<10} {:<10} {:>5} {:>5} {:>6} {:>5} {:>8} {:>10} {:>10} {:>10}\n"
              .format(*cols))
    for r in reports:
        buf.write(
            f"{r.strategy:<10} {r.crop_model:<10} {r.s1:>5.3g} {r.s2:>5.3g} "
            f"{r.gamma:>6.3g} {r.grid_size:>5d} {r.trials:>8d} "
            f"{r.analytic:>10.6f} {r.estimate:>10.6f} {r.std_error:>10.2e}\n"
        )
    return buf.getvalue()


def monte_carlo_overlap(strategy: str, s1: float, s2: float, gamma: float,
                        crop_model: str, grid_size: int, trials: int,
                        seed=0, chunk: int = 4096) -> AsymmetryReport:
    """Estimate the expected pair overlap ratio of a sampling strategy.

    Args:
        strategy: "naive" (uniform view 2) or "selective" (overlap-weighted).
        crop_model: "identical" (both views share the full-image crop) or
            "random" (independent crops from the trainer's crop law).
        grid_size: patches per side of both view grids.
        trials: number of simulated positive pairs (>= 1000).
        seed: int or ``numpy.random.SeedSequence``; trials run on spawned
            child streams, one per chunk, so partitioned (parallel-style) and
            serial execution of the same master seed agree in distribution.
        chunk: trials per child stream. ``chunk`` and ``seed`` alone fix every
            per-trial value: the array work runs in row tiles of 65,536
            cells (64 rows at grid 32, each work array 0.5 MB), and the
            tiling never changes a value. Chunk i runs on process i % n of
            the worker pool (:mod:`asympatch.pool`), and the estimate is
            taken over all trials in chunk order, so no value depends on
            where a chunk runs.

    Returns an :class:`AsymmetryReport` holding both the analytic expectation
    of the strategy's idealized model and the empirical estimate.
    """
    if strategy not in ("naive", "selective"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if crop_model not in CROP_MODELS:
        raise ValueError(f"unknown crop model {crop_model!r}")
    if trials < 1000:
        raise ValueError("at least 1000 trials are required")
    values = _simulate_pair_overlaps(
        strategy, s1, s2, gamma, crop_model, grid_size, trials, seed, chunk)
    analytic = (expected_overlap_naive(s1, s2) if strategy == "naive"
                else expected_overlap_selective(s1, s2, gamma))
    return AsymmetryReport(
        strategy=strategy,
        crop_model=crop_model,
        analytic=analytic,
        estimate=float(values.mean()),
        std_error=float(values.std(ddof=1) / np.sqrt(values.size)),
        trials=trials,
        s1=s1,
        s2=s2,
        gamma=gamma,
        grid_size=grid_size,
    )


def mechanism_expectation(s1: float, s2: float, gamma: float, crop_model: str,
                          grid_size: int, trials: int, seed=0,
                          chunk: int = 4096) -> float:
    """Selective expectation by direct integration over simulated geometry.

    Instead of drawing view 2, integrates the mean-field inclusion model
    ``pi_i = k2 * w_i / sum(w)`` against the simulated overlap profiles:
    ``E[sum_i pi_i * r_i / N]``. This takes inclusion probabilities exactly
    proportional to the weights, which ignores the without-replacement
    correction (and lets ``pi_i`` exceed 1). It is a rough second route, not
    a confirmation: at ``s1 = s2 = 0.25, gamma = 3``, grid 32, random crops
    it measures ~0.0092 against the Monte Carlo estimator's ~0.0102, about
    10% low.
    """
    values = _simulate_pair_overlaps(
        "mean-field", s1, s2, gamma, crop_model, grid_size, trials, seed,
        chunk)
    return float(values.mean())


def _simulate_pair_overlaps(strategy, s1, s2, gamma, crop_model, grid_size,
                            trials, seed, chunk):
    sampling._check_ratio("s1", s1)
    sampling._check_ratio("s2", s2)
    n = int(grid_size)
    if n < 2:
        raise ValueError("grid_size must be at least 2")
    k1, k2 = sampling.sample_count(s1, n * n), sampling.sample_count(s2, n * n)
    seq = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    return np.concatenate(pool._chunks([
        (strategy, gamma, crop_model, k1, k2, n,
         min(chunk, trials - i * chunk), child)
        for i, child in enumerate(seq.spawn(-(-trials // chunk)))]))


_workspaces = {}   # (rows, n) -> the Workspace this process's chunks reuse


def _simulate_chunk(strategy, gamma, crop_model, k1, k2, n, c, seed):
    """One chunk's ``c`` pair overlaps on ``n``-square grids, one row tile
    at a time; a worker job (see :mod:`asympatch.pool`).

    ``default_rng(seed)`` is read in the order of a single whole-chunk pass,
    so no value depends on the tile height: both views' crops, the view-1
    mask uniforms (``c * N`` doubles), the view-2 mask uniforms (naive only,
    another ``c * N``), the exponential keys of the positive weights in
    row-major order (selective only), then the padding draws of rows with
    fewer than ``k2`` positive weights.
    """
    big_n = n * n
    shape = (max(1, _TILE_CELLS // big_n), n)
    if shape not in _workspaces:
        _workspaces[shape] = sampling.Workspace(*shape)
    work, out = _workspaces[shape], np.empty(c)
    rng = np.random.default_rng(seed)
    box1, box2 = _chunk_crops(rng, c, crop_model)
    u1 = _fork(rng, c * big_n)
    u2 = _fork(rng, c * big_n) if strategy == "naive" else None
    short = []
    for a in range(0, c, work.rows):
        b = min(a + work.rows, c)
        t = b - a
        m = _uniform_masks(u1, k1, work, t)
        r = sampling.overlap_profiles(box1[:, a:b], box2[:, a:b], m, work)
        if strategy == "naive":
            r *= _uniform_masks(u2, k2, work, t)
            out[a:b] = r.sum(axis=1) / big_n
            continue
        w = sampling.selective_weights(r, gamma, out=work.w[:t])
        if strategy == "selective":
            keys, n_pos = sampling.race_keys(w, rng, work)
            take = sampling.rank_chunks(keys, k2)
            out[a:b] = np.take_along_axis(r, take, axis=1).sum(axis=1) / big_n
            for i in np.flatnonzero(n_pos < k2):
                short.append((a + i, keys[i].copy(), r[i].copy()))
        else:  # mean-field integration, no draw
            out[a:b] = k2 * (w * r).sum(axis=1) / w.sum(axis=1) / big_n
    # rare degenerate rows: every positive-weight patch is kept, summed in
    # index order, then the padding patches
    for i, keys_i, r_i in short:
        kept = np.flatnonzero(keys_i < np.inf)
        pad = sampling.padded_race_order(keys_i, rng)[kept.size:k2]
        out[i] = r_i[np.concatenate([kept, pad])].sum() / big_n
    return out


def _fork(rng, skip):
    """Split off ``rng``'s next ``skip`` doubles into a generator of their own.

    ``Generator.random`` turns exactly one 64-bit PCG64 output into each
    float64, so advancing the bit generator by ``skip`` outputs leaves ``rng``
    where drawing ``skip`` doubles would have, and the fork can hand those
    doubles out a tile at a time.
    """
    bits = np.random.PCG64()
    bits.state = rng.bit_generator.state
    rng.bit_generator.advance(skip)
    return np.random.Generator(bits)


def _chunk_crops(rng, c, crop_model):
    """Both views' crop boxes for a chunk: (4, c) arrays of x0, y0, w, h;
    random ones follow the trainer's crop law (``sampling.CROP_*``)."""
    if crop_model == "identical":
        full = np.zeros((4, c))
        full[2:] = _SIDE
        return full, full
    law = (sampling.CROP_AREA_RANGE, sampling.CROP_ASPECT_RANGE)
    return (sampling.random_crops(rng, c, _SIDE, _SIDE, *law),
            sampling.random_crops(rng, c, _SIDE, _SIDE, *law))


def _uniform_masks(uniforms, k, work, t):
    """0/1 rows marking ``k`` uniformly random cells of each of ``t`` rows,
    from the next ``t * N`` doubles of ``uniforms``; a view of ``work.mask``.

    A row marks its uniforms up to its k-th smallest, found by partitioning
    a copy in ``work.keys``: the ``k`` cells ``sampling.rank_chunks`` picks.
    A row tied at that value marks more, and is redone by ``rank_chunks``.
    """
    u, m = uniforms.random(out=work.u[:t]), work.mask[:t]
    part = work.keys[:t]
    part[...] = u
    part.partition(k - 1, axis=1)
    np.less_equal(u, part[:, k - 1:k], out=m)
    tied = np.flatnonzero(m.sum(axis=1) != k)
    if tied.size:
        m[tied] = sampling.index_masks(sampling.rank_chunks(u[tied], k),
                                       np.empty((tied.size, u.shape[1])))
    return m
