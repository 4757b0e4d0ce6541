import ctypes
import json
import multiprocessing.connection
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate

from asympatch import asymmetry, cli, pool, sampling
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


class FixedUniforms:
    """A uniforms source that hands out ``values`` in order, as
    ``Generator.random`` hands out its doubles."""

    def __init__(self, values):
        self.values = values

    def random(self, size=None, out=None):
        if out is None:
            return self.values.reshape(size).copy()
        out[...] = self.values.reshape(out.shape)
        return out


class TestUniformMasks:
    """``asymmetry._uniform_masks`` marks each row's uniforms up to its k-th
    smallest, and redoes by argpartition only a row tied at that value."""

    @pytest.mark.parametrize("tie,redone", [(5, [1]), (1, [])],
                             ids=["tie-at-kth", "tie-below-kth"])
    def test_masks_match_the_reference(self, tie, redone, monkeypatch):
        k, t, big_n = 5, 3, 16
        u = np.random.default_rng(3).random((t, big_n))
        rank = np.argsort(u[1])
        u[1, rank[tie]] = u[1, rank[tie - 1]]   # ranks tie-1 and tie equal
        ranked = []
        rank_chunks = sampling.rank_chunks

        def spy(keys, *args):
            ranked.append(keys.copy())
            return rank_chunks(keys, *args)

        monkeypatch.setattr(sampling, "rank_chunks", spy)
        mask = asymmetry._uniform_masks(FixedUniforms(u), k,
                                        sampling.Workspace(4, 4), t)
        expected = _reference_uniform_masks(FixedUniforms(u), t, big_n, k)
        assert mask.tobytes() == expected.tobytes()
        assert (mask.sum(axis=1) == k).all()
        assert [r.tobytes() for r in ranked] == \
            ([u[redone].tobytes()] if redone else [])


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


# ---------------------------------------------------------------------------
# Monte Carlo chunks on the worker pool

@pytest.fixture
def processes(monkeypatch):
    """Set how many processes run chunk jobs, the caller's included (on
    fresh workers), so the parallel path runs whatever the host's core
    count."""
    def use(n):
        pool._stop_workers()
        monkeypatch.setattr(pool, "_CORES", n)
    yield use
    pool._stop_workers()


def pooled(strategy, crop_model, trials, gamma=3.0):
    """Grid-8 pair overlaps in chunks of 1000 trials, the last one short
    unless ``trials`` is a multiple of 1000."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return asymmetry._simulate_pair_overlaps(
            strategy, 0.25, 0.25, gamma, crop_model, 8, trials, 13, 1000,
            DEFAULT_AREA_RANGE, DEFAULT_ASPECT_RANGE)


def sent_chunks(monkeypatch) -> list:
    """From now on, the chunk indices of every chunk message sent."""
    sent = []
    send = multiprocessing.connection.Connection.send

    def recording(conn, obj):
        if obj[0] == "chunk":
            sent.append([job[0] for job in obj[2]])
        send(conn, obj)

    monkeypatch.setattr(multiprocessing.connection.Connection, "send",
                        recording)
    return sent


ANALYZE_INI = "[analyze]\ngrid = 8\ntrials = 5000\ngammas = 0,3\n"


def analyze_files(tmp_path, name) -> dict:
    """The bytes of the report and density files of a two-chunk analyze."""
    cfg = tmp_path / "analyze.ini"
    cfg.write_text(ANALYZE_INI)
    out = tmp_path / name
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(out),
                     "--seed", "0"]) == 0
    return {f: (out / f).read_bytes()
            for f in ("analyze_report.csv", "density_curves.csv")}


class TestChunkPool:
    @pytest.mark.parametrize("trials", [1000, 1700, 2500],
                             ids=["1-chunk", "2-chunks", "3-chunks"])
    @pytest.mark.parametrize("crop_model", ["identical", "random"])
    @pytest.mark.parametrize("strategy", ["naive", "selective", "mean-field"])
    def test_overlaps_do_not_depend_on_the_process_count(
            self, processes, strategy, crop_model, trials):
        values = []
        for n in (1, 2):
            processes(n)
            values.append(pooled(strategy, crop_model, trials))
            # one chunk, or one process, forks nothing
            assert len(pool._procs) == (n - 1 if trials > 1000 else 0)
        assert values[0].size == trials
        assert values[1].tobytes() == values[0].tobytes()

    def test_the_first_call_sets_one_blas_thread_here_and_in_the_workers(
            self, processes, monkeypatch):
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        if not hasattr(lib, "scipy_openblas_get_num_threads64_"):
            pytest.skip("numpy does not link scipy-openblas")
        # as at load with the BLAS variables unset (at most the cores)
        lib.scipy_openblas_set_num_threads64_(2)
        pool._one_blas_thread.cache_clear()
        monkeypatch.setattr(pool, "_chunk",
                            lambda i: lib.scipy_openblas_get_num_threads64_())
        processes(2)
        assert pool._chunks([(), ()]) == [1, 1]
        assert len(pool._procs) == 1                # job 1 ran on a worker

    def test_no_more_processes_than_chunks(self, processes, monkeypatch):
        processes(4)
        sent = sent_chunks(monkeypatch)
        two = pooled("selective", "random", 1700)
        assert len(pool._procs) == 1 and sent == [[1]]
        processes(1)
        assert two.tobytes() == pooled("selective", "random", 1700).tobytes()

    def test_chunk_i_runs_on_process_i_mod_n(self, processes, monkeypatch):
        processes(3)
        sent = sent_chunks(monkeypatch)
        many = pooled("selective", "random", 4500)
        assert sent == [[1, 4], [2]]
        processes(1)
        assert many.tobytes() == pooled("selective", "random", 4500).tobytes()

    def test_analyze_files_do_not_depend_on_the_process_count(
            self, processes, tmp_path, monkeypatch):
        processes(1)
        serial = analyze_files(tmp_path, "serial")
        processes(2)
        sent = sent_chunks(monkeypatch)
        assert analyze_files(tmp_path, "pooled") == serial
        assert sent == [[1]] * 3            # one call per report, two chunks

    def test_a_chunk_that_raises_on_a_worker_raises_in_the_caller(
            self, processes, monkeypatch):
        simulate_chunk, caller = asymmetry._simulate_chunk, os.getpid()

        def fails_on_a_worker(*args):
            if os.getpid() != caller and args[1] == 7.0:     # gamma
                raise ZeroDivisionError("chunk failed on a worker")
            return simulate_chunk(*args)

        monkeypatch.setattr(asymmetry, "_simulate_chunk", fails_on_a_worker)
        processes(2)
        with pytest.raises(ZeroDivisionError, match="on a worker"):
            pooled("selective", "random", 2500, gamma=7.0)
        (proc, _), = pool._procs
        again = pooled("selective", "random", 2500)
        (same, _), = pool._procs
        assert same is proc and proc.is_alive()
        processes(1)
        assert again.tobytes() == pooled("selective", "random", 2500).tobytes()

    def test_an_analyze_process_exits_and_leaves_no_worker(self, tmp_path):
        # a worker that kept its copy of the caller's pipe end would never
        # read end-of-file: stopping it would wait out the join timeout, and
        # at exit it would hold the output pipe open
        cfg = tmp_path / "analyze.ini"
        cfg.write_text(ANALYZE_INI)
        script = (
            "import json, sys, time\n"
            "from asympatch import cli, pool\n"
            "pool._CORES = 2\n"
            "argv = ['analyze', '--config', sys.argv[1], '--out', sys.argv[2]]\n"
            "codes = [cli.main(argv)]\n"
            "pids = [proc.pid for proc, _ in pool._procs]\n"
            "start = time.perf_counter()\n"
            "pool._stop_workers()\n"
            "stop_s = time.perf_counter() - start\n"
            "codes.append(cli.main(argv))\n"
            "pids += [proc.pid for proc, _ in pool._procs]\n"
            "print(json.dumps({'codes': codes, 'pids': pids, "
            "'stop_s': stop_s}))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (
            os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "src"), env.get("PYTHONPATH"))
            if p)
        done = subprocess.run(
            [sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["codes"] == [0, 0]
        assert len(result["pids"]) == 2 and result["stop_s"] < 3.0
        for pid in result["pids"]:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
