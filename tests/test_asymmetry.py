import warnings

import numpy as np
import pytest
from scipy import integrate

from asympatch import asymmetry
from asympatch.asymmetry import (DEFAULT_AREA_RANGE, DEFAULT_ASPECT_RANGE,
                                 AsymmetryReport, expected_overlap_naive,
                                 expected_overlap_selective,
                                 mechanism_expectation, monte_carlo_overlap,
                                 pdf_normalization, reports_to_csv,
                                 reports_to_table, selective_density)


# ---------------------------------------------------------------------------
# whole-chunk reference: the Monte Carlo kernel before it was tiled. Every
# intermediate spans the whole chunk; the tiled kernel must match it byte for
# byte.

def _reference_simulate(strategy, s1, s2, gamma, crop_model, grid_size,
                        trials, seed, chunk):
    n = int(grid_size)
    big_n = n * n
    k1 = int(np.floor(s1 * big_n + 0.5))
    k2 = int(np.floor(s2 * big_n + 0.5))
    seq = np.random.SeedSequence(seed)
    n_chunks = (trials + chunk - 1) // chunk
    streams = [np.random.default_rng(s) for s in seq.spawn(n_chunks)]
    out = np.empty(trials)
    done = 0
    for rng in streams:
        c = min(chunk, trials - done)
        r = _reference_chunk_profiles(rng, c, n, k1, crop_model)
        if strategy == "naive":
            sel = _reference_uniform_masks(rng, c, big_n, k2)
            vals = (r * sel).sum(axis=1) / big_n
        elif strategy == "selective":
            w = np.power(1.0 - r, gamma)
            keys = np.full((c, big_n), np.inf)
            pos = w > 0.0
            keys[pos] = rng.standard_exponential(int(pos.sum())) / w[pos]
            enough = pos.sum(axis=1) >= k2
            take = np.argpartition(keys, k2 - 1, axis=1)[:, :k2]
            vals = np.take_along_axis(r, take, axis=1).sum(axis=1) / big_n
            for i in np.flatnonzero(~enough):
                idx = _reference_padded_draw(w[i], k2, rng)
                vals[i] = r[i, idx].sum() / big_n
        else:
            w = np.power(1.0 - r, gamma)
            vals = k2 * (w * r).sum(axis=1) / w.sum(axis=1) / big_n
        out[done:done + c] = vals
        done += c
    return out


def _reference_chunk_profiles(rng, c, n, k1, crop_model):
    side = 32.0
    if crop_model == "identical":
        x0a = np.zeros(c); y0a = np.zeros(c)
        wa = np.full(c, side); ha = np.full(c, side)
        x0b, y0b, wb, hb = x0a, y0a, wa, ha
    else:
        x0a, y0a, wa, ha = _reference_random_crops(rng, c, side)
        x0b, y0b, wb, hb = _reference_random_crops(rng, c, side)
    j = np.arange(n)
    xs1 = x0a[:, None] + j * (wa[:, None] / n)
    ys1 = y0a[:, None] + j * (ha[:, None] / n)
    xs2 = x0b[:, None] + j * (wb[:, None] / n)
    ys2 = y0b[:, None] + j * (hb[:, None] / n)
    ox = _reference_pair_overlap(xs2, wb / n, xs1, wa / n)
    oy = _reference_pair_overlap(ys2, hb / n, ys1, ha / n)
    m = _reference_uniform_masks(rng, c, n * n, k1).reshape(c, n, n)
    areas = (oy @ m) @ np.swapaxes(ox, 1, 2)
    patch2 = (wb / n) * (hb / n)
    return np.clip(areas / patch2[:, None, None], 0.0, 1.0).reshape(c, n * n)


def _reference_padded_draw(w, k, rng):
    # a row with fewer than k positive weights keeps them all, in index
    # order, and pads uniformly from the zero-weight indices
    pos = w > 0.0
    rng.standard_exponential(int(pos.sum()))
    pad = rng.choice(np.flatnonzero(~pos), size=k - int(pos.sum()),
                     replace=False)
    return np.concatenate([np.flatnonzero(pos), pad])


def _reference_random_crops(rng, c, side):
    lo, hi = DEFAULT_AREA_RANGE
    alo, ahi = DEFAULT_ASPECT_RANGE
    w = np.full(c, side * 0.9)
    h = np.full(c, side * 0.9)
    need = np.ones(c, dtype=bool)
    for _ in range(10):
        m = int(need.sum())
        if m == 0:
            break
        area = rng.uniform(lo, hi, m) * side * side
        ar = np.exp(rng.uniform(np.log(alo), np.log(ahi), m))
        ww = np.sqrt(area * ar)
        hh = np.sqrt(area / ar)
        ok = (ww <= side) & (hh <= side)
        rows = np.flatnonzero(need)[ok]
        w[rows] = ww[ok]
        h[rows] = hh[ok]
        need[rows] = False
    x0 = rng.random(c) * (side - w)
    y0 = rng.random(c) * (side - h)
    return x0, y0, w, h


def _reference_pair_overlap(starts2, len2, starts1, len1):
    lo = np.maximum(starts2[:, :, None], starts1[:, None, :])
    hi = np.minimum((starts2 + len2[:, None])[:, :, None],
                    (starts1 + len1[:, None])[:, None, :])
    return np.clip(hi - lo, 0.0, None)


def _reference_uniform_masks(rng, c, big_n, k):
    u = rng.random((c, big_n))
    part = np.argpartition(u, k - 1, axis=1)[:, :k]
    m = np.zeros((c, big_n))
    np.put_along_axis(m, part, 1.0, axis=1)
    return m


# (strategy, s1, s2, gamma, crop_model, grid, trials, chunk): every strategy
# and crop model, grids 8/16/32, partial last chunks, a case where every
# selective row has fewer than k2 positive weights and takes the padding
# path, and one where about a third of the rows do (a padded row's value
# does not depend on its draws, but the rows drawn after it do)
KERNEL_CASES = [
    ("naive", 0.25, 0.25, 0.0, "identical", 16, 1500, 1024),
    ("naive", 0.25, 0.25, 0.0, "random", 32, 700, 512),
    ("selective", 0.25, 0.25, 3.0, "random", 32, 700, 512),
    ("selective", 0.25, 0.25, 0.0, "random", 8, 5000, 4096),
    ("selective", 0.3, 0.2, 1.0, "random", 16, 1300, 1024),
    ("selective", 0.25, 0.25, 3.0, "identical", 16, 600, 512),
    ("selective", 0.75, 0.5, 3.0, "identical", 8, 300, 256),
    ("mean-field", 0.25, 0.25, 3.0, "random", 32, 700, 512),
    ("selective", 1.0, 0.6, 2.0, "random", 8, 700, 512),
]


def _tiled(case, monkeypatch=None, rows=None):
    strategy, s1, s2, gamma, crop_model, grid, trials, chunk = case
    if rows is not None:
        monkeypatch.setattr(asymmetry, "_TILE_CELLS", rows * grid * grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return asymmetry._simulate_pair_overlaps(
            strategy, s1, s2, gamma, crop_model, grid, trials, 11, chunk,
            DEFAULT_AREA_RANGE, DEFAULT_ASPECT_RANGE)


def _reference(case):
    strategy, s1, s2, gamma, crop_model, grid, trials, chunk = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return _reference_simulate(strategy, s1, s2, gamma, crop_model, grid,
                                   trials, 11, chunk)


class TestClosedForms:
    def test_naive_quarter(self):
        assert expected_overlap_naive(0.25, 0.25) == pytest.approx(0.0625)

    def test_naive_full(self):
        assert expected_overlap_naive(1.0, 1.0) == 1.0

    def test_naive_product(self):
        assert expected_overlap_naive(0.5, 0.1) == pytest.approx(0.05)

    def test_selective_gamma_zero_is_half_naive(self):
        assert expected_overlap_selective(0.3, 0.2, 0.0) == pytest.approx(0.03)

    def test_selective_quarter_gamma3(self):
        # 0.0125: one fifth of the naive 0.0625
        val = expected_overlap_selective(0.25, 0.25, 3.0)
        assert val == pytest.approx(0.0125)
        assert val / expected_overlap_naive(0.25, 0.25) == pytest.approx(0.2)

    def test_selective_monotone_decay(self):
        vals = [expected_overlap_selective(0.25, 0.25, g)
                for g in (0.0, 1.0, 5.0, 50.0, 5000.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4

    @pytest.mark.parametrize("call", [
        lambda g: expected_overlap_selective(0.25, 0.25, g),
        lambda g: selective_density(0.5, g, 0.25),
        lambda g: pdf_normalization(g, 0.25),
    ], ids=["expected_overlap_selective", "selective_density",
            "pdf_normalization"])
    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0])
    def test_gamma_validation(self, call, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            call(gamma)

    @pytest.mark.parametrize("fn", [expected_overlap_naive,
                                    lambda a, b: expected_overlap_selective(a, b, 1.0)])
    def test_ratio_validation(self, fn):
        with pytest.raises(ValueError):
            fn(0.0, 0.5)
        with pytest.raises(ValueError):
            fn(0.5, 1.5)


class TestNormalization:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("s1", [0.15, 0.25, 0.5, 1.0])
    def test_integral_equals_s1(self, gamma, s1):
        assert pdf_normalization(gamma, s1) == pytest.approx(s1, abs=1e-6)

    def test_quadrature_route_is_independent(self):
        # same integrand through a different rule lands on the same value
        val, _ = integrate.fixed_quad(
            lambda r: selective_density(r, 3.0, 0.25), 0.0, 1.0, n=40)
        assert pdf_normalization(3.0, 0.25) == pytest.approx(val, abs=1e-9)

    def test_ideal_overlap_integral_matches_closed_form(self):
        # integral of density * s2 * r over [0,1] reproduces the selective
        # expectation under the continuous-r model
        s1 = s2 = 0.25
        gamma = 3.0
        val, _ = integrate.quad(
            lambda r: selective_density(r, gamma, s1) * s2 * r, 0.0, 1.0)
        assert val == pytest.approx(expected_overlap_selective(s1, s2, gamma),
                                    abs=1e-9)


class TestReport:
    def make(self, estimate=0.06, analytic=0.0625):
        return AsymmetryReport(
            strategy="naive", crop_model="identical", analytic=analytic,
            estimate=estimate, std_error=0.001, trials=1000, s1=0.25,
            s2=0.25, gamma=0.0, grid_size=16,
        )

    def test_non_overlap_consistency(self):
        r = self.make()
        assert r.non_overlap_estimate == 1.0 - r.estimate
        assert r.non_overlap_analytic == 1.0 - r.analytic

    def test_analytic_bound_enforced(self):
        with pytest.raises(ValueError):
            self.make(analytic=0.07)   # above s1*s2

    def test_csv_and_table(self):
        r = self.make()
        csv = reports_to_csv([r])
        assert csv.splitlines()[0].startswith("strategy,")
        assert "naive" in csv.splitlines()[1]
        table = reports_to_table([r])
        assert "naive" in table and "identical" in table


class TestMonteCarlo:
    def test_naive_identical_hits_closed_form(self):
        rep = monte_carlo_overlap("naive", 0.25, 0.25, 0.0, "identical",
                                  16, 20_000, seed=0)
        assert abs(rep.estimate - 0.0625) < 3 * rep.std_error

    def test_gamma_zero_matches_naive(self):
        sel = monte_carlo_overlap("selective", 0.25, 0.25, 0.0, "random",
                                  16, 20_000, seed=1)
        nai = monte_carlo_overlap("naive", 0.25, 0.25, 0.0, "random",
                                  16, 20_000, seed=1)
        sigma = np.hypot(sel.std_error, nai.std_error)
        assert abs(sel.estimate - nai.estimate) < 3 * sigma

    def test_selective_below_naive_paired(self):
        for gamma in (1.0, 3.0):
            sel = monte_carlo_overlap("selective", 0.25, 0.25, gamma,
                                      "random", 16, 10_000, seed=2)
            nai = monte_carlo_overlap("naive", 0.25, 0.25, gamma, "random",
                                      16, 10_000, seed=2)
            assert sel.estimate < nai.estimate

    def test_seed_reproducibility(self):
        a = monte_carlo_overlap("selective", 0.25, 0.25, 3.0, "random",
                                16, 5000, seed=3)
        b = monte_carlo_overlap("selective", 0.25, 0.25, 3.0, "random",
                                16, 5000, seed=3)
        assert a.estimate == b.estimate
        assert a.std_error == b.std_error

    def test_partitioned_streams_agree_in_distribution(self):
        # different chunking changes the stream split but not the statistics
        a = monte_carlo_overlap("naive", 0.25, 0.25, 0.0, "identical",
                                16, 20_000, seed=4, chunk=4096)
        b = monte_carlo_overlap("naive", 0.25, 0.25, 0.0, "identical",
                                16, 20_000, seed=4, chunk=1024)
        sigma = np.hypot(a.std_error, b.std_error)
        assert abs(a.estimate - b.estimate) < 4 * sigma
        assert abs(a.estimate - 0.0625) < 3 * a.std_error
        assert abs(b.estimate - 0.0625) < 3 * b.std_error

    def test_mechanism_expectation_confirms_estimator(self):
        # inclusion-probability integration route vs the sampled mechanism
        mc = monte_carlo_overlap("selective", 0.25, 0.25, 3.0, "random",
                                 32, 20_000, seed=5)
        mf = mechanism_expectation(0.25, 0.25, 3.0, "random", 32, 20_000,
                                   seed=5)
        assert mf == pytest.approx(mc.estimate, rel=0.2)

    def test_identical_selective_avoids_everything(self):
        # discrete r in {0,1}: positive gamma zeroes every overlapped weight
        rep = monte_carlo_overlap("selective", 0.25, 0.25, 3.0, "identical",
                                  16, 5000, seed=6)
        assert rep.estimate == 0.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_overlap("bogus", 0.25, 0.25, 0.0, "identical", 16, 5000)
        with pytest.raises(ValueError):
            monte_carlo_overlap("naive", 0.25, 0.25, 0.0, "diagonal", 16, 5000)
        with pytest.raises(ValueError):
            monte_carlo_overlap("naive", 0.25, 0.25, 0.0, "identical", 16, 10)


class TestTiledKernel:
    @pytest.mark.parametrize("case", KERNEL_CASES, ids=lambda c: "-".join(
        str(v) for v in (c[0], c[4], c[5], c[3])))
    def test_bytes_match_whole_chunk_reference(self, case):
        assert _tiled(case).tobytes() == _reference(case).tobytes()

    @pytest.mark.parametrize("rows", [1, 100, 4096])
    @pytest.mark.parametrize("case", [KERNEL_CASES[1], KERNEL_CASES[2],
                                      KERNEL_CASES[6], KERNEL_CASES[8]],
                             ids=["naive", "selective", "padded", "some-padded"])
    def test_tile_height_never_moves_a_value(self, case, rows, monkeypatch):
        expected = _reference(case).tobytes()
        assert _tiled(case, monkeypatch, rows).tobytes() == expected

    @pytest.mark.parametrize("case,low,high", [(KERNEL_CASES[6], 1.0, 1.0),
                                               (KERNEL_CASES[8], 0.2, 0.5)],
                             ids=["padded", "some-padded"])
    def test_padded_cases_reach_the_fallback(self, case, low, high):
        strategy, s1, s2, gamma, crop_model, grid, trials, chunk = case
        with pytest.warns(RuntimeWarning, match="padding") as record:
            asymmetry._simulate_pair_overlaps(
                strategy, s1, s2, gamma, crop_model, grid, trials, 11, chunk,
                DEFAULT_AREA_RANGE, DEFAULT_ASPECT_RANGE)
        assert low <= len(record) / trials <= high
